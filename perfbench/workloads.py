"""The four benchmark workloads: inputs from a seed, one op, and its check.

A workload owns a fixed op list built at set-up.  ``run(k)`` performs op k
and returns its raw output; ``digest(k, output)`` shrinks that output to
what the check needs; ``check(k, d)`` compares a digest with
``expected(k)``, the answer ``naive`` gives, computed once per op.  Only
``run`` is timed.  ``traced_run`` is the in-process form of an op used by
the traced run, which is the same as ``run`` except for cli-cold.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import naive

PROPERTIES_OF_MAPS = ("surjective", "injective", "dense", "induced", "pi0-injective")
PROPERTIES_OF_SPACES = ("connected", "T0", "T1", "hausdorff")
# Seed of the op shapes (which spaces meet in an op).  It is fixed, so the
# work in a pass hardly depends on --seed, which picks maps and labelings.
SHAPES_SEED = 20140825


def random_space(rng, n):
    """A random preorder on n points: a random order over a shuffle, plus a few ties."""
    perm = list(range(n))
    rng.shuffle(perm)
    density = rng.uniform(0.1, 0.5)
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                pairs.append((perm[a], perm[b]))
                if rng.random() < 0.1:
                    pairs.append((perm[b], perm[a]))
    return tuple(f"p{i}" for i in range(n)), naive.closure(n, pairs)


def relabel(s, perm):
    """The copy of s with point x moved to position perm[x]."""
    labels, leq = s
    n = len(labels)
    inverse = [0] * n
    for x, y in enumerate(perm):
        inverse[y] = x
    return labels, tuple(tuple(leq[inverse[a]][inverse[b]] for b in range(n)) for a in range(n))


def transport(rng, f):
    """A copy of map f whose source and target points are each shuffled at random."""
    a, b, assign = f
    pa, pb = list(range(len(a[0]))), list(range(len(b[0])))
    rng.shuffle(pa)
    rng.shuffle(pb)
    moved = [0] * len(assign)
    for x, v in enumerate(assign):
        moved[pa[x]] = pb[v]
    return relabel(a, pa), relabel(b, pb), tuple(moved)


def isomorphic_copy(rng, s):
    """An isomorphism between two random relabelings of s."""
    return transport(rng, (s, s, tuple(range(len(s[0])))))


def random_map(rng, a, b):
    """A random monotone map a -> b, moved onto random relabelings of a and b."""
    return transport(rng, (a, b, rng.choice(naive.homs(a, b))))


def pairs(a, x, b, y):
    """Squares a lift with left a -> b and right x -> y scans: |hom(a, x)| * |hom(b, y)|."""
    return len(naive.homs(a, x)) * len(naive.homs(b, y))


def maps_hash(maps):
    """Digest of a list of (source, target, assign) in order, labels included."""
    return hashlib.sha256(repr(list(maps)).encode()).hexdigest()


def raw_space(space):
    return space.labels, space.leq


def raw_map(f):
    return raw_space(f.source), raw_space(f.target), f.assign


def nearest(candidates, target):
    """The candidate (cost, item) whose cost is closest to target on a log scale."""
    return min(candidates, key=lambda c: abs(math.log(max(c[0], 1) / target)))[1]


class Workload:
    ops: list

    def __len__(self):
        return len(self.ops)

    def expected(self, k):
        answers = self.__dict__.setdefault("_answers", {})
        if k not in answers:
            answers[k] = self.reference(k)
        return answers[k]

    def check(self, k, digest):
        return digest == self.expected(k)

    def warm_up(self):
        for k in range(min(len(self.ops), 8)):
            self.run(k)

    def traced_run(self, k):
        return self.run(k)

    def digest(self, k, output):
        return output

    def output_bytes(self, digest):
        """Bytes the op printed, read from its digest; 0 for ops that print nothing."""
        return 0

    def close(self):
        pass


# -- lift-scan -------------------------------------------------------------

# Square-scan sizes (|tops| * |bottoms|) the holding ops aim at, in turn.
HOLDING_PAIRS = (300, 1_000, 3_000, 10_000, 30_000)
# Largest scan a random lift may need if it happens to hold.
RANDOM_PAIRS_CAP = 40_000
LIFT_SCAN_BLOCKS = 120


class LiftScan(Workload):
    """Blocks of 3 holding exhaustive scans and 6 lifts that mostly fail early.

    Holding: an isomorphism's self-lift, ``iso |> g`` and ``f |> iso``.
    The rest: one self-lift of a random map that is not an isomorphism and
    five random lifts.  Spaces have 3 to 5 points.  The shapes of the ops
    (which spaces meet, sized so each holding scan is near its target) are
    fixed; the seed picks the maps and relabels every space.
    """

    name = "lift-scan"

    def __init__(self, lp, seed, root):
        self.lp = lp
        shapes, rng = random.Random(SHAPES_SEED), random.Random(seed)
        pool = [random_space(shapes, n) for n in (3, 4, 5) for _ in range(8)]
        self.ops = []
        for block in range(LIFT_SCAN_BLOCKS):
            target = HOLDING_PAIRS[block % len(HOLDING_PAIRS)]
            s = nearest([(len(naive.homs(s, s)) ** 2, s) for s in shapes.sample(pool, 12)], target)
            iso = isomorphic_copy(rng, s)
            self.ops.append(("iso-self", iso, iso))
            s, x, y = self._shape(shapes, pool, target, lambda s, x, y: (s, x, s, y))
            self.ops.append(("iso-left", isomorphic_copy(rng, s), random_map(rng, x, y)))
            s, a, b = self._shape(shapes, pool, target, lambda s, a, b: (a, s, b, s))
            self.ops.append(("iso-right", random_map(rng, a, b), isomorphic_copy(rng, s)))
            while True:
                a, b = shapes.choice(pool), shapes.choice(pool)
                maps = [d for d in naive.homs(a, b) if not naive.is_isomorphism((a, b, d))]
                if maps and len(naive.homs(a, a)) * len(naive.homs(b, b)) <= RANDOM_PAIRS_CAP:
                    break
            f = transport(rng, (a, b, rng.choice(maps)))
            self.ops.append(("self", f, f))
            for _ in range(5):
                while True:
                    a, b, x, y = (shapes.choice(pool) for _ in range(4))
                    if naive.homs(a, b) and naive.homs(x, y) and pairs(a, x, b, y) <= RANDOM_PAIRS_CAP:
                        break
                self.ops.append(("random", random_map(rng, a, b), random_map(rng, x, y)))
        self._engine = [(self._engine_map(f), self._engine_map(g)) for _, f, g in self.ops]

    @staticmethod
    def _shape(shapes, pool, target, scan):
        """(s, p, q) with hom(p, q) nonempty whose scan, given by `scan`, is nearest target."""
        candidates = []
        for _ in range(12):
            s, p, q = shapes.choice(pool), shapes.choice(pool), shapes.choice(pool)
            if naive.homs(p, q):
                candidates.append((pairs(*scan(s, p, q)), (s, p, q)))
        return nearest(candidates, target)

    def _engine_map(self, f):
        p = self.lp.preorder
        (sl, sq), (tl, tq), assign = f
        return p.MonotoneMap(p.FinPreorder(sl, sq), p.FinPreorder(tl, tq), assign)

    def op_texts(self):
        return [repr(op) for op in self.ops]

    def run(self, k):
        f, g = self._engine[k]
        result = self.lp.lifting.lifting_check(f, g, self.lp.lifting.HomCache())
        square = result.counterexample
        if square is None:
            return result.holds, None, None
        return result.holds, square.top.assign, square.bottom.assign

    def reference(self, k):
        """The exact digest op k must produce, or None if the reference disagrees with itself."""
        kind, f, g = self.ops[k]
        if kind.startswith("iso"):
            # An isomorphism lifts against every map, and in particular itself.
            return (True, None, None) if naive.is_isomorphism(g if kind == "iso-right" else f) else None
        holds, square = naive.lift(f, g)
        if holds:
            return True, None, None
        # The first failing square must also survive the brute-force audit.
        return (False, *square) if naive.audit(f, g, *square) else None


# -- quantify --------------------------------------------------------------

ORTHOGONAL_TESTS = ("EMPTY_TO_PT", "CODIAG", "SIERP_TO_PT", "PT_TO_SIERP_CLOSED")
ORTHOGONAL_QUERIES = tuple((side, test) for test in ORTHOGONAL_TESTS for side in ("left", "right"))
QUANTIFY_SIZE = 3
# Hom-set sizes the hom queries aim at, in turn.
HOM_COUNTS = (60, 150, 400, 1_000)


class Quantify(Workload):
    """Blocks of one orthogonal class, two mono, two epi and six hom queries.

    The orthogonal queries cycle through all eight (side, test) pairs in a
    fixed order, one per block, so a pass holds each once.  mono and epi
    ask about maps between spaces of 1 to 4 points; hom queries join
    spaces of 4 and 5 points whose hom-set size is nearest a target.  As in
    lift-scan, the shapes are fixed and the seed picks maps and labelings.
    """

    name = "quantify"

    def __init__(self, lp, seed, root):
        self.lp = lp
        shapes, rng = random.Random(SHAPES_SEED), random.Random(seed)
        notation = lp.notation
        small = [random_space(shapes, n) for n in (1, 2, 3, 4) for _ in range(4)]
        large = [random_space(shapes, n) for n in (4, 5) for _ in range(8)]
        spaces, maps, self.ops = {}, {}, []

        def declare(table, prefix, value):
            name = f"{prefix}{len(table)}"
            table[name] = value
            return name

        for block, (side, test) in enumerate(ORTHOGONAL_QUERIES):
            self.ops.append(notation.OrthogonalQuery(side, (test,), QUANTIFY_SIZE))
            for node in (notation.MonoQuery, notation.MonoQuery, notation.EpiQuery, notation.EpiQuery):
                a, b = shapes.choice(small), shapes.choice(small)
                while not naive.homs(a, b):
                    a, b = shapes.choice(small), shapes.choice(small)
                f = random_map(rng, a, b)
                declare(spaces, "S", f[0])
                declare(spaces, "S", f[1])
                self.ops.append(node(declare(maps, "m", f), QUANTIFY_SIZE))
            for k in range(6):
                wanted = HOM_COUNTS[(block + k) % len(HOM_COUNTS)]
                candidates = [(shapes.choice(large), shapes.choice(large)) for _ in range(12)]
                a, b = nearest([(len(naive.homs(a, b)), (a, b)) for a, b in candidates], wanted)
                source, target, _ = random_map(rng, a, b)
                self.ops.append(notation.HomQuery(declare(spaces, "S", source), declare(spaces, "S", target)))
        self.spaces = {**naive.SPACES, **spaces}
        self.maps = {**naive.MAPS, **maps}
        self.program = "\n".join(
            [space_decl(name, s) for name, s in spaces.items()]
            + [map_decl(name, f, spaces) for name, f in maps.items()]
        )
        self.env = lp.cli.elaborate(lp.cli.parse(self.program))
        self._classes = {}

    def warm_up(self):
        for k, query in enumerate(self.ops[:11]):
            if not isinstance(query, self.lp.notation.OrthogonalQuery):
                self.run(k)

    def op_texts(self):
        return [self.program] + [self.lp.notation.print_query(q) for q in self.ops]

    def run(self, k):
        cli = self.lp.cli
        outcome = cli.execute_query(self.ops[k], self.env)
        text = cli.print_result(outcome)
        record = json.dumps(cli.encode_result(outcome), sort_keys=True)
        return outcome, text, record

    def digest(self, k, output):
        outcome, text, record = output
        query = self.lp.notation.print_query(self.ops[k])
        lines = text.split("\n")
        decoded = json.loads(record)
        well_formed = lines[0] == query and decoded["query"] == query
        size = len(text) + len(record)
        if hasattr(outcome, "maps"):
            count = len(outcome.maps)
            well_formed = (
                well_formed and lines[1] == f"  count {count}" and len(lines) == count + 2
                and decoded["count"] == count and len(decoded["maps"]) == count
            )
            return well_formed, size, maps_hash(raw_map(m) for m in outcome.maps)
        square = outcome.result.counterexample
        well_formed = well_formed and decoded["holds"] == outcome.result.holds
        if square is None:
            return well_formed, size, (outcome.result.holds, None)
        return well_formed, size, (outcome.result.holds, tuple(raw_map(m) for m in (
            square.left, square.right, square.top, square.bottom)))

    def output_bytes(self, digest):
        return digest[1]

    def reference(self, k):
        """A hash of the expected maps, or the expected mono/epi verdict."""
        query = self.ops[k]
        kind = type(query).__name__
        spaces = naive.preorders(QUANTIFY_SIZE)
        if kind == "OrthogonalQuery":
            key = (query.side, query.tests)
            if key not in self._classes:
                tests = [self.maps[t] for t in query.tests]
                members = [
                    m for m in naive.universe_maps(spaces)
                    if all(naive.lift(*((t, m) if query.side == "right" else (m, t)))[0] for t in tests)
                ]
                self._classes[key] = maps_hash(members)
            return self._classes[key]
        if kind == "HomQuery":
            a, b = self.spaces[query.source], self.spaces[query.target]
            return maps_hash((a, b, d) for d in naive.homs(a, b))
        decide = naive.mono if kind == "MonoQuery" else naive.epi
        return decide(self.maps[query.name], spaces)

    def check(self, k, digest):
        well_formed, _, answer = digest
        expected = self.expected(k)
        if not well_formed:
            return False
        if isinstance(expected, str):
            return answer == expected
        holds, square = answer
        if holds != expected or holds:
            return holds == expected and square is None
        # A failing mono/epi names a lifting square: left is the codiagonal
        # (mono) or f (epi); it must commute and admit no diagonal.
        left, right, top, bottom = square
        f = self.maps[self.ops[k].name]
        if (right if type(self.ops[k]).__name__ == "MonoQuery" else left) != f:
            return False
        return naive.audit(left, right, top[2], bottom[2])


# -- cli-cold --------------------------------------------------------------

GENERATED_PROGRAMS = 22
GENERATED_PAIRS_CAP = 20_000


def space_decl(name, s):
    labels, leq = s
    items = list(labels)
    for x in range(len(labels)):
        for y in range(len(labels)):
            if x == y or not leq[x][y]:
                continue
            if not leq[y][x]:
                items.append(f"{labels[x]} < {labels[y]}")
            elif x < y:
                items.append(f"{labels[x]} <> {labels[y]}")
    return f"space {name} = {{ {', '.join(items)} }}"


def map_decl(name, f, names):
    src, tgt, assign = f
    source = next(n for n, s in names.items() if s is src)
    target = next(n for n, s in names.items() if s is tgt)
    items = ", ".join(f"{src[0][x]} |-> {tgt[0][v]}" for x, v in enumerate(assign))
    return f"map {name} : {source} -> {target} = {{ {items} }}"


def generate_program(rng, index):
    """A program over spaces of at most 4 points with lift, check, hom and enumerate queries."""
    spaces = {f"S{k}": random_space(rng, rng.randint(1, 4)) for k in range(rng.randint(2, 4))}
    scope = {**naive.SPACES, **spaces}
    maps = {}
    for k in range(rng.randint(2, 4)):
        a, b = rng.choice(list(spaces.values())), rng.choice(list(scope.values()))
        if naive.homs(a, b):
            maps[f"m{k}"] = (a, b, rng.choice(naive.homs(a, b)))
    every_map = {**naive.MAPS, **maps}
    queries = []
    for _ in range(rng.randint(3, 6)):
        kind = rng.choice(("lift", "lift", "check", "check", "hom", "enumerate"))
        if kind == "lift":
            (l, f), (r, g) = rng.choice(list(every_map.items())), rng.choice(list(every_map.items()))
            if len(naive.homs(f[0], g[0])) * len(naive.homs(f[1], g[1])) <= GENERATED_PAIRS_CAP:
                queries.append(f"lift {l} |> {r}")
        elif kind == "check" and maps and rng.random() < 0.5:
            queries.append(f"check {rng.choice(PROPERTIES_OF_MAPS)} {rng.choice(list(maps))}")
        elif kind == "check":
            queries.append(f"check {rng.choice(PROPERTIES_OF_SPACES)} {rng.choice(list(scope))}")
        elif kind == "hom":
            queries.append(f"hom {rng.choice(list(scope))} {rng.choice(list(scope))}")
        else:
            queries.append(f"enumerate {rng.randint(0, 3)}")
    lines = [f"# generated program {index}"]
    lines += [space_decl(name, s) for name, s in spaces.items()]
    lines += [map_decl(name, f, scope) for name, f in maps.items()]
    return "\n".join(lines + queries) + "\n"


def query_text(q):
    kind = type(q).__name__
    if kind == "LiftQuery":
        return f"lift {q.left} |> {q.right}"
    if kind == "CheckQuery":
        return f"check {q.prop} {q.arg}"
    if kind == "OrthogonalQuery":
        return f"orthogonal {q.side} [{', '.join(q.tests)}] size {q.size}"
    if kind in ("MonoQuery", "EpiQuery"):
        return f"{'mono' if kind == 'MonoQuery' else 'epi'} {q.name} size {q.size}"
    if kind == "HomQuery":
        return f"hom {q.source} {q.target}"
    return f"enumerate {q.size}"


def counterexample(f, g, top, bottom):
    return {
        "top": naive.label_pairs(f[0], g[0], top),
        "bottom": naive.label_pairs(f[1], g[1], bottom),
    }


def expected_records(program):
    """Naive answers for every query of a parsed program, as comparable records.

    Lift and check records must match exactly, counterexample included;
    hom and orthogonal records are compared on count and assignments;
    mono and epi on the verdict.
    """
    spaces, maps = dict(naive.SPACES), dict(naive.MAPS)
    for decl in program.declarations:
        if type(decl).__name__ == "SpaceDecl":
            spaces[decl.name] = naive.space(decl.labels, decl.generators)
        else:
            src, tgt = spaces[decl.source], spaces[decl.target]
            image = dict(decl.pairs)
            maps[decl.name] = (src, tgt, tuple(tgt[0].index(image[a]) for a in src[0]))
    records = []
    for q in program.queries:
        kind = type(q).__name__
        record = {"format": 1, "query": query_text(q)}
        if kind in ("LiftQuery", "CheckQuery"):
            if kind == "LiftQuery":
                pairs = [(maps[q.left], maps[q.right])]
            else:
                arg = spaces[q.arg] if q.prop in PROPERTIES_OF_SPACES else maps[q.arg]
                pairs = naive.lifting_form(q.prop, arg)
            holds, failing = naive.decide_all(pairs)
            record.update(holds=holds, counterexample=failing and counterexample(*failing))
        elif kind in ("MonoQuery", "EpiQuery"):
            decide = naive.mono if kind == "MonoQuery" else naive.epi
            record["holds"] = decide(maps[q.name], naive.preorders(q.size))
        elif kind in ("HomQuery", "OrthogonalQuery"):
            if kind == "HomQuery":
                found = [(spaces[q.source], spaces[q.target], d)
                         for d in naive.homs(spaces[q.source], spaces[q.target])]
            else:
                tests = [maps[t] for t in q.tests]
                found = [
                    m for m in naive.universe_maps(naive.preorders(q.size))
                    if all(naive.lift(*((t, m) if q.side == "right" else (m, t)))[0] for t in tests)
                ]
            record.update(count=len(found), assign=[naive.label_pairs(*m) for m in found])
        else:
            counts = list(naive.LABELED_PREORDERS[: q.size + 1])
            record.update(counts=counts, total=sum(counts))
        records.append(record)
    return records


def comparable(record):
    """Reduce an engine output record to the fields expected_records produces."""
    if "maps" in record:
        record["assign"] = [m["assign"] for m in record.pop("maps")]
    if record["query"].startswith(("mono ", "epi ")):
        # Only the verdict is compared; a counterexample must come with FAILS.
        if (record.pop("counterexample") is None) != record["holds"]:
            record["holds"] = None
    return record


class CliCold(Workload):
    """Fresh ``python -m liftprop run PATH --machine`` processes, one per op.

    The programs alternate between the repository's corpus and generated
    programs, so any stretch of the op list holds both kinds evenly.
    """

    name = "cli-cold"

    def __init__(self, lp, seed, root):
        self.lp = lp
        corpus = sorted((root / "tests" / "corpus").glob("*.lift"))
        if not corpus:
            raise FileNotFoundError(f"no corpus programs under {root / 'tests' / 'corpus'}")
        rng = random.Random(seed)
        (root / ".bench_out").mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-cold-", dir=root / ".bench_out"))
        generated = []
        for k in range(GENERATED_PROGRAMS):
            path = self.workdir / f"generated_{k:02d}.lift"
            path.write_text(generate_program(rng, k), encoding="utf-8")
            generated.append(path)
        self.ops = [p for pair in zip(corpus, generated) for p in pair]
        self.ops += corpus[len(generated):] + generated[len(corpus):]
        self.texts = [p.read_text(encoding="utf-8") for p in self.ops]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root = root

    def warm_up(self):
        self.run(0)

    def op_texts(self):
        return [p.name + "\n" + text for p, text in zip(self.ops, self.texts)]

    def run(self, k):
        done = subprocess.run(
            [sys.executable, "-m", "liftprop", "run", str(self.ops[k]), "--machine"],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def traced_run(self, k):
        out = io.StringIO()
        status = self.lp.cli.run_file(str(self.ops[k]), True, out)
        return status, out.getvalue()

    def digest(self, k, output):
        return output[0], output[1], len(output[1])

    def output_bytes(self, digest):
        return digest[2]

    def reference(self, k):
        return expected_records(self.lp.notation.parse(self.texts[k]))

    def check(self, k, digest):
        status, stdout, _ = digest
        if status != 0:
            return False
        try:
            records = [comparable(json.loads(line)) for line in stdout.splitlines()]
        except (ValueError, KeyError):
            return False
        return records == self.expected(k)


# -- verify-paper ----------------------------------------------------------

SUITES = ("surjective", "injective", "dense", "induced", "pi0-injective",
          "connected", "T0", "T1", "hausdorff", "mono", "epi", "self-lifting")


class VerifyPaper(Workload):
    """One op is a full ``verify_paper(4)``; the input does not depend on the seed."""

    name = "verify-paper"

    def __init__(self, lp, seed, root):
        self.lp = lp
        self.ops = [4]

    def warm_up(self):
        self.lp.verify.verify_paper(2)

    def op_texts(self):
        return [f"verify_paper({n})" for n in self.ops]

    def run(self, k):
        return self.lp.verify.verify_paper(self.ops[k])

    def digest(self, k, output):
        return [(r.suite, r.instances, r.mismatches) for r in output]

    def reference(self, k):
        # Instance counts from scratch: maps of the size-3 universe for map
        # suites, spaces up to size 4 for space suites, maps of the size-2
        # universe for mono, epi and self-lifting.  No suite may mismatch.
        maps3 = len(naive.universe_maps(naive.preorders(3)))
        spaces4 = sum(naive.LABELED_PREORDERS[:5])
        maps2 = len(naive.universe_maps(naive.preorders(2)))
        counts = [maps3] * 5 + [spaces4] * 4 + [maps2] * 3
        return [(s, n, 0) for s, n in zip(SUITES, counts)]


WORKLOADS = {w.name: w for w in (CliCold, LiftScan, Quantify, VerifyPaper)}
