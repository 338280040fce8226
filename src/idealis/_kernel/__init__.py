"""Generator arithmetic on finite products of one-dimensional monoids.

Every routine here operates on a *pack*, the flat description of a finite
product of one-dimensional coordinate monoids, built by
``MonoidModel.pack``:

    pack = (kinds, conds, frobs, tables, masks, atoms)

    kinds  -- 0 for a counting coordinate (numerical or free), 1 for a group
    conds  -- conductor: least c with [c, oo) contained in the coordinate
              monoid (0 for free and group coordinates)
    frobs  -- Frobenius number, -1 when the coordinate is free or a group
    tables -- per-coordinate bytes of length conds[i]; tables[i][x] is 1
              iff x is a member below the conductor
    masks  -- per-coordinate ``member_mask`` of a counting coordinate, None
              for groups
    atoms  -- per-coordinate tuple of irreducible members, () for groups

Generator lists are tuples of int tuples.  Canonical generator lists are
antichains under componentwise divisibility, sorted lexicographically, with
group coordinates already normalised to zero by the caller; ``reduce_gens``
relies on that normalisation (divisibility then forces lexicographic order,
so a single backward check suffices).
"""

from itertools import product

# perfbench records this and profiles per layer only when it reads "slow"
# (pure Python, which cProfile can see into).
IMPL = "slow"


class BudgetExceeded(Exception):
    """Raised when a closure would enumerate more choice functions than allowed."""


def member1(pack, i, x):
    """Is ``x`` a member of the i-th coordinate monoid?"""
    if pack[0][i]:
        return True
    if x < 0:
        return False
    if x >= pack[1][i]:
        return True
    return pack[3][i][x] == 1


def contains(pack, v):
    """Is the vector ``v`` a member of the product monoid?"""
    for i, x in enumerate(v):
        if not member1(pack, i, x):
            return False
    return True


def divides(pack, a, b):
    """Does ``a`` divide ``b``, i.e. is ``b - a`` a member?"""
    kinds, conds, _, tables, _, _ = pack
    for i, y in enumerate(a):
        # member1, inlined: this is the kernel's innermost loop.
        if kinds[i]:
            continue
        x = b[i] - y
        if x < 0 or (x < conds[i] and tables[i][x] != 1):
            return False
    return True


def divisible_any(pack, v, gens):
    """Is ``v`` in the module generated by ``gens``?"""
    kinds, conds, _, tables, _, _ = pack
    if len(kinds) == 1 and not kinds[0]:
        # One counting coordinate: v - g must be a member.
        y = v[0]
        cond = conds[0]
        table = tables[0]
        for (a,) in gens:
            x = y - a
            if x >= cond or (x >= 0 and table[x] == 1):
                return True
        return False
    for g in gens:
        for i, y in enumerate(g):
            if kinds[i]:
                continue
            x = v[i] - y
            if x < 0 or (x < conds[i] and tables[i][x] != 1):
                break
        else:
            return True
    return False


def reduce_gens(pack, gens):
    """Canonicalise a generator list: dedupe, drop dominated, sort lex.

    Assumes group coordinates are zeroed in every generator, so a kept
    generator can never be dominated by a later candidate.
    """
    kinds, conds, _, tables, _, _ = pack
    if len(kinds) == 1 and not kinds[0]:
        # One counting coordinate: candidates come in increasing order, so
        # c is dominated iff c - m is a member for a kept m < c, and every
        # c at or past the least kept m plus the conductor is.
        cond = conds[0]
        table = tables[0]
        out = []
        for g in sorted(set(gens)):
            c = g[0]
            if out and c - out[0][0] >= cond:
                break
            for (m,) in out:
                if table[c - m] == 1:
                    break
            else:
                out.append(g)
        return tuple(out)
    out = []
    for g in sorted(set(gens)):
        for h in out:
            # divisible_any's loop for one kept h, inlined
            for i, y in enumerate(h):
                if kinds[i]:
                    continue
                x = g[i] - y
                if x < 0 or (x < conds[i] and tables[i][x] != 1):
                    break
            else:
                break  # h divides g
        else:
            out.append(g)
    return tuple(out)


def module_gens_1d(pack, i, shifts):
    """Generators over the i-th coordinate of {z : z + s is a member for all s}.

    ``shifts`` must be nonempty.  For a group coordinate the module is the
    whole group, generated by 0.  Otherwise the least member m lies in
    [-min(shifts), conds[i] - min(shifts)] and every generator lies in
    [m, m + frobs[i]]: past the Frobenius window each candidate is m plus a
    member, hence redundant.
    """
    if pack[0][i]:
        return (0,)
    return _gens_1d(pack[4][i], pack[1][i], pack[2][i], shifts)


def member_mask(cond, frob, table):
    """Membership of a counting coordinate with conductor ``cond``,
    Frobenius number ``frob`` and membership table ``table`` as an int:
    bit x says x is a member, for x < 2 * cond + frob + 1, the reach of
    every shift ``_gens_1d`` applies.  0 for a free coordinate, which
    needs none.
    """
    if not cond:
        return 0
    top = 2 * cond + frob + 1
    return (int(table[::-1].translate(_BINARY), 2)
            | ((1 << top) - (1 << cond)))


# Reads a membership table, reversed, as a binary numeral: bit x = table[x].
_BINARY = bytes.maketrans(b"\x00\x01", b"01")


def _gens_1d(member, cond, f, shifts):
    """``module_gens_1d`` on a counting coordinate, given its membership
    mask ``member`` (from ``member_mask``), conductor and Frobenius number.
    """
    lo = -min(shifts)
    if not cond:
        # every z >= lo qualifies, and lo divides all of them
        return (lo,)
    # Bitmasks over u = z - lo in [0, width): bit x of ``member`` says x
    # is a member, so z + s = u + (s + lo) is a member for every s exactly
    # on the bits of the AND of the shifted masks; a shift with
    # s + lo >= cond sets them all.  The least member m sits at or below
    # u = cond, and every generator in [m, m + f].
    width = cond + f + 1
    module = (1 << width) - 1
    for s in shifts:
        s += lo
        if s < cond:
            module &= member >> s
    u = (module & -module).bit_length() - 1
    # Members of the Frobenius window in increasing order; each generator
    # strikes out everything it divides.
    rest = module >> u & ((1 << (f + 1)) - 1)
    base = lo + u
    out = []
    while rest:
        x = (rest & -rest).bit_length() - 1
        out.append(base + x)
        rest &= ~(member << x)
    return tuple(out)


def inverse_gens(pack, gens):
    """Generators of {z : z + a is a member for every a in gens}.

    Empty input means the empty ideal; its inverse is not finitely
    generated as a module and the caller must special-case it.
    """
    if not gens:
        raise ValueError("inverse of the empty module")
    conds, frobs = pack[1], pack[2]
    cols = [(0,) if m is None else
            _gens_1d(m, conds[i], frobs[i], tuple(a[i] for a in gens))
            for i, m in enumerate(pack[4])]
    return reduce_gens(pack, product(*cols))


def v_close_gens(pack, gens):
    """Divisorial closure: inverse of the inverse.  Empty stays empty."""
    if not gens:
        return ()
    return inverse_gens(pack, inverse_gens(pack, gens))


def sum_gens(pack, a_gens, b_gens):
    """Generators of the sum module {a + b}."""
    return reduce_gens(pack, tuple(
        tuple(x + y for x, y in zip(a, b)) for a in a_gens for b in b_gens))


def intersect_gens(pack, a_gens, b_gens):
    """Generators of the intersection of two finitely generated modules.

    Pairwise: (a + H) cap (b + H) has, in each coordinate, the module of z
    with z - a_i and z - b_i both members.
    """
    if not a_gens or not b_gens:
        return ()
    conds, frobs, masks = pack[1], pack[2], pack[4]
    acc = []
    for a in a_gens:
        for b in b_gens:
            cols = [(0,) if m is None else
                    _gens_1d(m, conds[i], frobs[i], (-a[i], -b[i]))
                    for i, m in enumerate(masks)]
            acc.extend(product(*cols))
    return reduce_gens(pack, acc)


def radical_gens(pack, gens):
    """Radical of an integral ideal via the support criterion.

    x lies in the radical iff x strictly exceeds zero on the counting
    support of some generator; the radical is the union of the support
    cells of the minimal supports, each generated by a cartesian product
    of atoms.
    """
    if not gens:
        return ()
    d = len(pack[0])
    supps = set()
    for a in gens:
        supps.add(frozenset(i for i in range(d) if pack[0][i] == 0 and a[i] > 0))
    mins = [s for s in supps if not any(t < s for t in supps)]
    acc = []
    for s in mins:
        cols = [pack[5][i] if i in s else (0,) for i in range(d)]
        acc.extend(product(*cols))
    return reduce_gens(pack, acc)


def box_members(pack, lo, hi):
    """Members of the monoid inside the coordinate box, in lex order."""
    cols = []
    for i in range(len(pack[0])):
        if pack[0][i]:
            cols.append(tuple(range(lo[i], hi[i] + 1)))
        else:
            cols.append(tuple(
                x for x in range(max(lo[i], 0), hi[i] + 1) if member1(pack, i, x)))
    return [v for v in product(*cols)]


def modular_close_gens(pack, gens, faces, budget=0):
    """Intersection of the face-localised copies of the module.

    ``faces`` lists, for each maximal ideal of the target system, the set of
    counting coordinates inverted in the localisation (group coordinates are
    implicitly inverted everywhere).  An element z lies in the closure iff
    for every face F there is a generator a with z - a a member on every
    coordinate outside F, i.e. z lies in the union over a of a + H_F.

    The intersection is taken one face at a time over a list of terms,
    each a product of one-dimensional modules: coordinate i of a term is
    None while no face constrains it, else the generators of a module of
    the i-th coordinate.  Meeting a term with a + H_F meets each coordinate
    outside F with a_i + H_i.  Between faces every term contained in
    another is dropped: if A is inside B, then A cap T is inside B cap T
    for every later face term T, so the union does not change.  The final
    ``reduce_gens`` keeps the module's minimal elements, which are the
    same whatever generating set it is given.

    ``budget`` > 0 caps n^k, the number of choice functions of one
    generator per face, and raises before any work.
    """
    if not gens:
        return ()
    kinds, conds, frobs = pack[0], pack[1], pack[2]
    d = len(kinds)
    if not faces:
        return (tuple([0] * d),)
    n = len(gens)
    k = len(faces)
    if budget > 0 and n ** k > budget:
        raise BudgetExceeded(f"{n}^{k} choice functions")
    counting = [i for i in range(d) if not kinds[i]]
    # the counting coordinates each face leaves uninverted
    rows = [[i for i in counting if i not in face] for face in faces]
    seen = set().union(*rows)
    for i in counting:
        if i not in seen:
            raise ValueError(f"coordinate {i} inverted in every face")
    tables, masks = pack[3], pack[4]
    met = {}

    def meet(i, col, x):
        """The i-th coordinate module ``col`` meet x + H_i."""
        key = (i, col, x)
        got = met.get(key)
        if got is None:
            m, cond, table = masks[i], conds[i], tables[i]
            # (t + H_i) cap (x + H_i) per generator t, then the minimal
            # elements of their union, in increasing order
            out = []
            for c in sorted({z for t in col
                             for z in _gens_1d(m, cond, frobs[i], (-t, -x))}):
                if out and c - out[0] >= cond:
                    break
                for y in out:
                    if table[c - y] == 1:
                        break
                else:
                    out.append(c)
            got = met[key] = tuple(out)
        return got

    def within(small, big):
        """Is the term ``small`` inside the term ``big``?"""
        for i in counting:
            b = big[i]
            if b is None:
                continue
            a = small[i]
            if a is None:
                return False
            cond, table = conds[i], tables[i]
            for c in a:
                for y in b:
                    x = c - y
                    if x >= cond or (x >= 0 and table[x] == 1):
                        break
                else:
                    return False
        return True

    terms = [(None,) * d]
    for j, row in enumerate(rows):
        grown = {}
        for term in terms:
            for a in gens:
                t = list(term)
                for i in row:
                    col = term[i]
                    t[i] = (a[i],) if col is None else meet(i, col, a[i])
                grown[tuple(t)] = None
        terms = list(grown)
        if j == k - 1:
            break
        kept = []
        for t in terms:
            if any(within(t, u) for u in kept):
                continue
            kept = [u for u in kept if not within(u, t)]
            kept.append(t)
        terms = kept
    acc = []
    for t in terms:
        acc.extend(product(*[(0,) if kinds[i] else t[i] for i in range(d)]))
    return reduce_gens(pack, acc)


def primary_violation(pack, members, gens_i, gens_rad):
    """First (x, y) in lex scan with x + y in I, y outside rad, x outside I.

    With gens_rad equal to gens_i this is a primality violation finder.
    Returns None when the box holds no counterexample.
    """
    for x in members:
        if divisible_any(pack, x, gens_i):
            continue
        for y in members:
            if divisible_any(pack, y, gens_rad):
                continue
            s = tuple(a + b for a, b in zip(x, y))
            if divisible_any(pack, s, gens_i):
                return (x, y)
    return None
