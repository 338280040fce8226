"""The canonical JSON writer against the stdlib encoder it replaces."""

import json
from pathlib import Path

import pytest

import idealis
from idealis import cli, report
from idealis.monoid import to_text


def stdlib(doc) -> str:
    """The canonical settings through the stdlib encoder: what
    ``report.dumps`` must write byte for byte."""
    return json.dumps(doc, indent=2, sort_keys=True, separators=(",", ": "),
                      ensure_ascii=True) + "\n"


def assert_canonical(doc):
    assert report.dumps(doc) == stdlib(doc)
    assert report.json_fragment(doc) == \
        "    " + stdlib(doc)[:-1].replace("\n", "\n    ")


def test_named_model_reports(named):
    args = cli._build_parser().parse_args(["analyze", "x"])
    for H in named.values():
        assert_canonical(cli._cmd_analyze(H, args))


# the CLI goldens of test_cli.py, as JSON reports and whole envelopes
GOLDENS = [
    ("factor", "n2", "--element", "2,1", "--system", "t"),
    ("factor", "gap23", "--element", "2", "--system", "t"),
    ("closure", "gap23", "--element", "3", "--system", "t"),
    ("verify", "gap23", "--suite", "Thm4.2"),
    ("spectrum", "n2"),
    ("analyze", "gap23", "affine1", "--radius", "5"),
]


@pytest.mark.parametrize("argv", GOLDENS, ids=lambda argv: "-".join(argv[:2]))
def test_cli_goldens(named, tmp_path, argv):
    command, *rest = argv
    argv = [command] + [str(tmp_path / f"{a}.spec") if a in named else a
                        for a in rest]
    for a in rest:
        if a in named:
            (tmp_path / f"{a}.spec").write_text(to_text(named[a]))
    args = cli._build_parser().parse_args(argv + ["--json"])
    if getattr(args, "element", None) is not None:
        args.element = cli.parse_element(args.element)
    reports = [cli._report(named[Path(p).stem], args) for p in args.inputs]
    for rep in reports:
        assert_canonical(rep)
    assert_canonical(report.envelope(idealis.__version__, command,
                                     cli._config(args), reports))


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, None, True, False,
    {"a": {}, "b": [], "c": [[]], "d": [{}]},
    [[1, [2, [3, []]]], [[[]]]],
    (1, (2, 3), [4, (5,)]),
    {"quote": '"', "backslash": "\\", "both": '\\"x\\"', "slash": "/"},
    {"controls": "\x00\x01\x1f\x7f\b\f\n\r\t", "\n key": "\t"},
    {"latin": "é", "greek": "λ∧∨", "cjk": "理想", "astral": "𝔽𝟙😀"},
    [-1, -0, 2 ** 63, -(2 ** 64) - 1, 10 ** 40, 12345678901234567890],
    {"z": None, "a": True, "m": False, "B": 1, "_": -7},
    [1.5, -0.0, 1e300, float("inf"), float("-inf"), float("nan")],
    {"deep": [[[[[[[[[[[[{"x": [None]}]]]]]]]]]]]]},
], ids=repr)
def test_hand_made_documents(doc):
    assert_canonical(doc)


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", object(), 1j, {"k": frozenset()}, [None, ...],
])
def test_unserializable_values_raise_type_error(value):
    with pytest.raises(TypeError):
        stdlib(value)
    with pytest.raises(TypeError):
        report.dumps(value)


def test_keys_must_be_strings():
    # reports key every object by name; json would coerce a number key
    # to a string, and the writer refuses it instead
    with pytest.raises(TypeError):
        report.dumps({1: "one"})
