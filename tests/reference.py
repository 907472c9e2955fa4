"""Brute-force ground truth: each concept the tests check the engine against, defined once.

Every function tries every candidate and keeps those that meet the
definition: relations by transitivity, assignments by monotonicity,
diagonals by the two triangles, symmetries by every permutation.  Only
liftprop's value classes and printers are imported, never its search
code (hom_enumerate, monotone_assignments, HomCache, lifting_check,
find_diagonal, class_of, enumerate_preorders), so a fault in the engine
cannot hide in its own reference.  test_reference.py pins these
functions to published counts.
"""

import functools
import itertools

from liftprop import FinPreorder, MonotoneMap, print_query, print_space
from liftprop.notation import SpaceDecl


@functools.cache
def preorders(n):
    """Every preorder on n points, labeled e0, e1, ...: the reflexive
    relations that are transitive, in row-major lexicographic order."""
    points = range(n)
    rows = [[row for row in itertools.product((False, True), repeat=n) if row[x]] for x in points]
    triples = list(itertools.product(points, repeat=3))
    return tuple(
        FinPreorder(tuple(f"e{x}" for x in points), rel)
        for rel in itertools.product(*rows)
        if all(rel[x][z] or not (rel[x][y] and rel[y][z]) for x, y, z in triples)
    )


def closure(points, pairs):
    """The pairs x <= y of the preorder the pairs generate on the points."""
    leq = {(x, x) for x in points} | set(pairs)
    while True:
        more = {(x, z) for x, y in leq for w, z in leq if y == w} - leq
        if not more:
            return leq
        leq |= more


def is_monotone(source, target, assign):
    """x <= y in the source implies assign[x] <= assign[y] in the target."""
    points = range(len(source))
    return all(target.leq[assign[x]][assign[y]] for x in points for y in points if source.leq[x][y])


def hom(source, target):
    """Every monotone assignment source -> target, in lexicographic order."""
    every = itertools.product(range(len(target)), repeat=len(source))
    return [assign for assign in every if is_monotone(source, target, assign)]


def _commutes(f, g, top, bottom):
    """g after top equals bottom after f, on assignments."""
    return all(g.assign[x] == bottom[b] for x, b in zip(top, f.assign))


def commutes(square):
    """The square's right map after its top equals its bottom after its left map."""
    return _commutes(square.left, square.right, square.top.assign, square.bottom.assign)


def _triangles(f, g, d):
    """(d after f, g after d) for an assignment d: B -> X."""
    return tuple(d[b] for b in f.assign), tuple(g.assign[x] for x in d)


def diagonal(square):
    """The lex-least d: B -> X with d after f = top and g after d = bottom, or None."""
    f, g, top, bottom = square.left, square.right, square.top.assign, square.bottom.assign
    return next((d for d in hom(f.target, g.source) if _triangles(f, g, d) == (top, bottom)), None)


def lift(f, g):
    """(top, bottom) assignments of the first commuting square with no diagonal, or None.

    Every (top, bottom) pair is tried, tops outer; a square has a diagonal
    when some d in hom(B, X) has d after f = top and g after d = bottom.
    """
    lifts = {_triangles(f, g, d) for d in hom(f.target, g.source)}
    bottoms = hom(f.target, g.target)
    for top in hom(f.source, g.source):
        for bottom in bottoms:
            if _commutes(f, g, top, bottom) and (top, bottom) not in lifts:
                return top, bottom
    return None


def relation(space, perm):
    """The relation with old point perm[x] at index x: leq[perm[x]][perm[y]] at (x, y)."""
    return tuple(tuple(space.leq[x][y] for y in perm) for x in perm)


def relabel(space, perm, labels=None):
    """The space with old point perm[x] at index x, its labels carried along unless given."""
    labels = [space.labels[x] for x in perm] if labels is None else labels
    return FinPreorder(tuple(labels), relation(space, perm))


def move(m, a, b):
    """b∘m∘a⁻¹ for the relabelings of m's source by a and its target by b."""
    inverse = {old: x for x, old in enumerate(b)}
    return MonotoneMap(
        relabel(m.source, a), relabel(m.target, b), tuple(inverse[m.assign[x]] for x in a)
    )


@functools.cache
def automorphisms(space):
    """The permutations that leave the relation as it is, in itertools.permutations order."""
    perms = itertools.permutations(range(len(space)))
    return tuple(perm for perm in perms if relation(space, perm) == space.leq)


def canonical_relabeling(space):
    """The least relabeled relation and the first permutation reaching it, over all n!."""
    form, first = None, None
    for perm in itertools.permutations(range(len(space))):
        rel = relation(space, perm)
        if form is None or rel < form:
            form, first = rel, perm
    return form, first


def isomorphic(p, q):
    """Some permutation carries the relation of p onto that of q."""
    perms = itertools.permutations(range(len(p)))
    return len(p) == len(q) and any(relation(q, perm) == p.leq for perm in perms)


def orbit(p, q, assign):
    """The orbit of an assignment p -> q under Aut(p) x Aut(q): every b with
    b[sigma[x]] = tau[assign[x]]."""
    out = set()
    for sigma in automorphisms(p):
        for tau in automorphisms(q):
            b = [0] * len(p)
            for x, v in enumerate(assign):
                b[sigma[x]] = tau[v]
            out.add(tuple(b))
    return out


def orbit_count(p, q):
    """The number of orbits of Aut(p) x Aut(q) on hom(p, q)."""
    seen, orbits = set(), 0
    for assign in hom(p, q):
        if assign not in seen:
            orbits += 1
            seen |= orbit(p, q, assign)
    return orbits


def reprint_program(program, env):
    """Render a parsed program back to canonical text."""
    lines = []
    for decl in program.declarations:
        if isinstance(decl, SpaceDecl):
            lines.append(print_space(env.spaces[decl.name], decl.name))
        else:
            f = env.maps[decl.name]
            items = ", ".join(f"{a} |-> {b}" for a, b in f.assignment_by_label())
            body = f"{{ {items} }}" if items else "{ }"
            lines.append(f"map {decl.name} : {decl.source} -> {decl.target} = {body}")
    lines.extend(print_query(query) for query in program.queries)
    return "\n".join(lines) + "\n"
