"""Seeded inputs and job lists for the three benchmark workloads.

Run as a script, this is the benchmark's set-up step: it imports the
package, writes every input file of one workload into a directory, writes
the job list next to them, and prints the set-up's CPU and wall time and
the digests of the input set and the job list as one JSON line.  The run harness starts it
in a fresh interpreter several times so that the package import is timed
cold each time.

    python3 bench/inputs.py --workload graph-certify --seed 7 --out DIR

Instance sizes are fixed per workload; the seed chooses vertex labels,
random edges and entry values.  Different seeds therefore carry the same
amount of work, and a run-to-run spread measures the host, not the draw.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from itertools import combinations, permutations

WORKLOADS = ("graph-certify", "exact-charpoly", "tensor-json")

# The reference instances are the same for every seed, so their layer times
# can be compared with the hand-measured table in ROADMAP item 1.
REF_SEED = 20160504

# Every workload has at least 100 jobs per pass, so that its tail is a p90
# over distinct jobs, and passes short enough for three or more in a run.

# (a, b) sizes of the seeded two-part family, from 36 to 588 edges; the
# reference gen_prop4_graph(1, 10, 10) adds the 2,025-edge end of the range.
PROP4_SIZES = ((4, 4), (4, 5), (5, 5), (4, 6), (4, 7), (5, 6), (6, 6), (5, 7), (4, 9),
               (5, 8), (6, 7), (7, 8))
# (a, b, c) sizes of the seeded three-part family.
PROP5_SIZES = ((6, 7, 4), (7, 6, 5))
# (n, random edges) of the planted-K5 graphs.
PLANTED_SIZES = tuple((n, 2 * n) for n in range(8, 25))

# Seeded n = 3 tensors; the reference set adds one at each of r = 3, 4, 5.
CHARPOLY_N3_R = (3, 3, 3, 4)
CHARPOLY_N2_R = (2, 3, 4, 5) * 12
MATRIX_SIZES = (9, 12, 15, 18, 21, 24)
PRODUCT_MATRIX_BLOCKS = ((3, 4), (2, 5, 3), (4, 4, 4), (6, 7), (5, 5, 5), (8, 6),
                         (2, 3), (3, 3, 3), (4, 5), (2, 2, 2, 2), (7, 3), (6, 6))
PRODUCT_TENSOR_R = (3,) * 21 + (4, 4)

# (r, n, entries) of the nonnegative tensors for rho / verify-eigenpair.
NONNEG_SIZES = ((3, 10, 600), (4, 10, 1000), (3, 11, 800), (4, 11, 1200), (3, 12, 1000),
                (4, 12, 1500), (3, 13, 1200), (4, 13, 1500), (3, 14, 1500), (4, 14, 2000),
                (3, 15, 1500), (4, 15, 2000),
                (3, 10, 1000), (4, 10, 1500), (3, 12, 1500), (3, 14, 2000),
                (4, 12, 2500), (3, 16, 3000), (4, 14, 4000), (3, 20, 4000),
                (4, 16, 6000), (3, 24, 6000), (3, 30, 8000), (4, 20, 10000))
# (r, n, entries, planted) of the signed tensors for the parity verbs;
# planted is None, "coloring" or "transversal".
SIGNED_SIZES = tuple((4, n, m, None) for n, m in (
    (10, 500), (10, 800), (11, 600), (11, 900), (12, 1000), (13, 800), (14, 1500), (16, 2000),
    (20, 3000), (24, 4000), (30, 6000))) + (
    (3, 12, 1500, None), (3, 24, 5000, None),
    (4, 10, 400, "coloring"), (4, 12, 600, "coloring"), (4, 14, 800, "coloring"),
    (4, 16, 1200, "coloring"), (4, 20, 2000, "coloring"), (4, 24, 3000, "coloring"),
    (4, 10, 500, "transversal"), (4, 11, 600, "transversal"), (4, 12, 800, "transversal"),
    (4, 16, 1500, "transversal"), (3, 18, 2000, "transversal"), (3, 26, 4000, "transversal"))


def _value(rng: random.Random, lo: int, hi: int) -> int:
    v = 0
    while v == 0:
        v = rng.randint(lo, hi)
    return v


def _relabel(rng: random.Random, n: int, edges):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return sorted(sorted(perm[v - 1] for v in e) for e in edges)


def _graph_doc(r: int, n: int, edges) -> dict:
    return {"r": r, "n": n, "edges": [list(e) for e in edges]}


def _tensor_doc(r: int, n: int, entries: dict) -> dict:
    return {"r": r, "n": n,
            "entries": [{"i": list(idx), "v": v} for idx, v in sorted(entries.items())]}


def _planted_k5(rng: random.Random, n: int, m: int) -> list:
    """Connected 4-graph with a planted K5^(4), so it has no odd coloring.

    Every vertex of a K5^(4) lies on 4 of its 5 edges; summing their
    congruences gives 4 * sum(phi) == 5 * 2, i.e. 0 == 2 (mod 4).
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {tuple(sorted(order[i:i + 4])) for i in range(n - 3)}
    edges.update(combinations(sorted(rng.sample(range(1, n + 1), 5)), 4))
    while len(edges) < m + n - 3 + 5:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 4))))
    return sorted(edges)


def _random_tensor(rng: random.Random, n: int, r: int, lo: int, hi: int,
                   density: float) -> dict:
    out = {}
    for idx in _all_indices(n, r):
        if rng.random() < density:
            out[idx] = _value(rng, lo, hi)
    return out


def _all_indices(n: int, r: int):
    if r == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for tail in _all_indices(n, r - 1):
            yield (head,) + tail


def _random_matrix(rng: random.Random, n: int) -> dict:
    return {(i, j): rng.randint(-6, 6) for i in range(1, n + 1)
            for j in range(1, n + 1)}


def _symmetric_block(rng: random.Random, vertices, r: int, lo: int, hi: int) -> dict:
    out = {}
    for multiset in _multisets(sorted(vertices), r):
        v = _value(rng, lo, hi)
        for perm in set(permutations(multiset)):
            out[perm] = v
    return out


def _multisets(vs, r: int):
    if r == 0:
        yield ()
        return
    for i, v in enumerate(vs):
        for rest in _multisets(vs[i:], r - 1):
            yield (v,) + rest


def _block_diagonal(rng: random.Random, sizes, r: int) -> tuple[int, dict]:
    n = sum(sizes)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    entries = {}
    start = 0
    for size in sizes:
        entries.update(_symmetric_block(rng, labels[start:start + size], r, -5, 5))
        start += size
    return n, entries


def _distinct_indices(rng: random.Random, n: int, r: int, k: int) -> list[tuple]:
    """k distinct index tuples of [n]^r, drawn without replacement."""
    out = []
    for lin in rng.sample(range(n ** r), k):
        idx = []
        for _ in range(r):
            lin, digit = divmod(lin, n)
            idx.append(digit + 1)
        out.append(tuple(idx))
    return out


def _nonnegative_tensor(rng: random.Random, r: int, n: int, m: int) -> dict:
    """Random positive entries on top of a circulant support like order6.

    The tuples (k, k+1, ..., k+r-1) (mod n) make the digraph a cycle through
    every vertex, so the tensor is weakly irreducible whatever else is drawn.
    """
    entries = {}
    for idx in _distinct_indices(rng, n, r, m):
        num = rng.randint(1, 9)
        entries[idx] = num if rng.random() < 0.7 else f"{num}/{rng.randint(2, 7)}"
    entries.update({tuple((k + t) % n + 1 for t in range(r)): 1 for k in range(n)})
    return entries


def _signed_tensor(rng: random.Random, r: int, n: int, m: int, planted) -> dict:
    """Random signed support, optionally built around a planted certificate.

    A planted coloring phi picks the last index of each tuple so that the
    residues sum to r/2 (mod r); a planted transversal X picks it so that
    the tuple meets X an odd number of times.  Unplanted r = 4 supports this
    dense have neither certificate.
    """
    if planted is None:
        return {idx: _value(rng, -9, 9) for idx in _distinct_indices(rng, n, r, m)}
    phi = [rng.randrange(r) for _ in range(n)]
    members = {v for v in range(1, n + 1) if rng.random() < 0.5}
    by_residue = [[v for v in range(1, n + 1) if phi[v - 1] == k] for k in range(r)]
    parity_pools = [sorted(members), sorted(set(range(1, n + 1)) - members)]
    entries = {}
    while len(entries) < m:
        head = [rng.randint(1, n) for _ in range(r - 1)]
        if planted == "coloring":
            pool = by_residue[(r // 2 - sum(phi[j - 1] for j in head)) % r]
        else:
            pool = parity_pools[sum(j in members for j in head) % 2]
        if pool:
            entries[tuple(head) + (rng.choice(pool),)] = _value(rng, -9, 9)
    return entries


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# The inputs kept at smoke size (bench/test_bench.py): one small instance of
# every kind, so a smoke run takes seconds.
SMOKE_INPUTS = {"ref-prop4-k1", "prop4-4-4", "k5-8-16",
                "ref-h2", "ref-a1", "ref-n3-r3", "n2-r2-0", "n2-r3-1", "matrix-12",
                "product-r2-0", "product-r3-0",
                "ref-order6", "nonneg-r3-n10-m600", "signed-r4-n10-m500-random",
                "signed-r4-n10-m400-coloring", "signed-r4-n10-m500-transversal"}


class _JobSet:
    """Collects input documents and jobs; drops all but SMOKE_INPUTS at smoke size."""

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.files: dict[str, dict] = {}
        self.jobs: list[dict] = []

    def add_input(self, name: str, doc: dict) -> str:
        fname = f"{name}.json"
        if not self.smoke or name in SMOKE_INPUTS:
            self.files[fname] = doc
        return fname

    def job(self, verb: str, fname: str, meta: dict | None = None, **extra) -> None:
        if fname not in self.files:
            return
        argv = [verb, "--input", fname]
        if "pair" in extra:
            argv += ["--pair", extra["pair"]]
        self.jobs.append({"id": f"{verb}:{fname[:-5]}", "argv": argv,
                          "verb": verb, "input": fname, "meta": meta or {}, **extra})


def _graph_certify(seed: int, b: _JobSet) -> None:
    from hypersym import fixtures
    from hypersym.hypergraph import gen_prop4_graph, gen_prop5_graph

    graphs = [("ref-prop4-k1", fixtures.fixture("prop4-k1").to_json_dict(), "prop4"),
              ("ref-prop5-k1", fixtures.fixture("prop5-k1").to_json_dict(), "prop5"),
              ("ref-prop4-10-10", gen_prop4_graph(1, 10, 10)[0].to_json_dict(), "prop4")]
    rng = random.Random(seed)
    for a, bsize in PROP4_SIZES:
        g, _ = gen_prop4_graph(1, a, bsize)
        graphs.append((f"prop4-{a}-{bsize}",
                       _graph_doc(4, g.n, _relabel(rng, g.n, g.edges)), "prop4"))
    for a, bsize, c in PROP5_SIZES:
        g, _ = gen_prop5_graph(1, a, bsize, c)
        graphs.append((f"prop5-{a}-{bsize}-{c}",
                       _graph_doc(4, g.n, _relabel(rng, g.n, g.edges)), "prop5"))
    for n, m in PLANTED_SIZES:
        graphs.append((f"k5-{n}-{m}", _graph_doc(4, n, _planted_k5(rng, n, m)), "planted-k5"))
    for name, doc, family in graphs:
        fname = b.add_input(name, doc)
        meta = {"family": family}
        for verb in ("check-symmetric", "odd-transversal", "rho"):
            b.job(verb, fname, meta)


def _exact_charpoly(seed: int, b: _JobSet) -> None:
    from hypersym import fixtures

    ref = random.Random(REF_SEED)
    rng = random.Random(seed)
    docs = [("ref-h2", fixtures.fixture("h2").to_json_dict()),
            ("ref-a1", fixtures.fixture("a1").to_json_dict())]
    for r in (3, 4, 5):
        docs.append((f"ref-n3-r{r}", _tensor_doc(r, 3, _random_tensor(ref, 3, r, -3, 3, 0.8))))
    for n in (30, 60):
        docs.append((f"ref-matrix-{n}", _tensor_doc(2, n, _random_matrix(ref, n))))
    for i, r in enumerate(CHARPOLY_N3_R):
        docs.append((f"n3-r{r}-{i}", _tensor_doc(r, 3, _random_tensor(rng, 3, r, -3, 3, 0.8))))
    for i, r in enumerate(CHARPOLY_N2_R):
        docs.append((f"n2-r{r}-{i}", _tensor_doc(r, 2, _random_tensor(rng, 2, r, -5, 5, 0.9))))
    for n in MATRIX_SIZES:
        docs.append((f"matrix-{n}", _tensor_doc(2, n, _random_matrix(rng, n))))
    for name, doc in docs:
        fname = b.add_input(name, doc)
        b.job("charpoly", fname, {"node": rng.randint(-7, 7)})
    products = []
    for i, sizes in enumerate(PRODUCT_MATRIX_BLOCKS):
        products.append((f"product-r2-{i}", *_block_diagonal(rng, sizes, 2), 2))
    for i, r in enumerate(PRODUCT_TENSOR_R):
        products.append((f"product-r{r}-{i}", *_block_diagonal(rng, (2, 1), r), r))
    for name, n, entries, r in products:
        fname = b.add_input(name, _tensor_doc(r, n, entries))
        b.job("verify-product", fname)


def _tensor_json(seed: int, b: _JobSet) -> None:
    from hypersym import fixtures

    rng = random.Random(seed)
    order6 = b.add_input("ref-order6", fixtures.fixture("order6").to_json_dict())
    pairs = [(order6, "ref-order6")]
    for r, n, m in NONNEG_SIZES:
        name = f"nonneg-r{r}-n{n}-m{m}"
        pairs.append((b.add_input(name, _tensor_doc(r, n, _nonnegative_tensor(rng, r, n, m))),
                      name))
    for fname, name in pairs:
        b.job("rho", fname)
        b.job("verify-eigenpair", fname, pair=f"pair-{name}.json",
              pair_from=f"rho:{name}")
    b.job("odd-transversal", order6, {"planted": "transversal"})
    for name in ("h2", "a1"):
        fname = b.add_input(f"ref-{name}", fixtures.fixture(name).to_json_dict())
        b.job("odd-coloring", fname, {"planted": None})
        b.job("odd-transversal", fname, {"planted": None})
    for r, n, m, planted in SIGNED_SIZES:
        name = f"signed-r{r}-n{n}-m{m}-{planted or 'random'}"
        fname = b.add_input(name, _tensor_doc(r, n, _signed_tensor(rng, r, n, m, planted)))
        meta = {"planted": planted}
        if r % 2 == 0:
            b.job("odd-coloring", fname, meta)
        b.job("odd-transversal", fname, meta)


_WORKLOAD_INPUTS = {"graph-certify": _graph_certify, "exact-charpoly": _exact_charpoly,
             "tensor-json": _tensor_json}


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def write_workload(workload: str, seed: int, out_dir: str, smoke: bool) -> dict:
    """Write the inputs and job list of one workload; return their digests.

    The jobs run in a fixed shuffled order, so that a few seconds of host
    slowdown fall on a mix of job kinds rather than on one family.
    """
    b = _JobSet(smoke)
    _WORKLOAD_INPUTS[workload](seed, b)
    random.Random(REF_SEED).shuffle(b.jobs)
    os.makedirs(out_dir, exist_ok=True)
    inputs = hashlib.sha256()
    for fname in sorted(b.files):
        data = _canonical(b.files[fname])
        with open(os.path.join(out_dir, fname), "wb") as fh:
            fh.write(data)
        inputs.update(fname.encode() + b"\0" + hashlib.sha256(data).digest())
    jobs = _canonical(b.jobs)
    with open(os.path.join(out_dir, "jobs.json"), "wb") as fh:
        fh.write(jobs)
    return {"input_digest": inputs.hexdigest(),
            "jobs_digest": hashlib.sha256(jobs).hexdigest(),
            "inputs": len(b.files), "jobs": len(b.jobs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding the hypersym package")
    parser.add_argument("--smoke", action="store_true", help="a handful of small instances")
    args = parser.parse_args(argv)
    start, start_cpu = time.perf_counter(), time.process_time()
    sys.path.insert(0, args.src)
    import hypersym  # noqa: F401  (the package import is part of set-up)
    record = write_workload(args.workload, args.seed, args.out, args.smoke)
    # setup_s is CPU time: the host deschedules this process for a tenth of a
    # second now and then, which makes the wall time of one set-up jump by half.
    record["setup_s"] = time.process_time() - start_cpu
    record["setup_wall_s"] = time.perf_counter() - start
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
