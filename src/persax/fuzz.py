"""Seeded random instance generation for the verification suites, and the
seeded run of every axiom on such instances, in one process or spread over
forked workers.

Everything is driven by an explicit ``random.Random``; the same seed always
produces the same instances, byte for byte, on every platform.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import sys
import threading
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .axioms import AXIOM_IDS, AxiomReport, verify_axiom
from .fields import GF2
from .filtration import (
    FilteredSet,
    Interval,
    PreservingMap,
    RelativeFilteredPair,
    critical_values,
    facets,
    fin,
    inclusion,
    pair_of,
    standard_boundary,
    standard_simplex,
    union,
)
from .formats import instance_tag

DEFAULT_POOL = ("a", "b", "c", "d", "e")
DEFAULT_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def random_filtration(rng: random.Random, pool: Sequence[str] = DEFAULT_POOL,
                      max_simplices: int = 12, max_span: int = 4,
                      values: Sequence[Fraction] = DEFAULT_VALUES) -> FilteredSet:
    """Random monotone filtration built by inserting simplices with all faces.

    Each insertion adds a random simplex at a random value and lowers faces as
    needed, which preserves closure and monotonicity by construction, so the
    set is not checked again; ``pool`` must hold distinct vertex names.
    """
    table: dict[tuple, Fraction] = {}
    attempts = rng.randint(1, 6)
    for _ in range(attempts):
        k = rng.randint(1, min(max_span, len(pool)))
        sigma = tuple(sorted(rng.sample(list(pool), k)))
        val = rng.choice(list(values))
        closure = [face for size in range(1, k + 1) for face in combinations(sigma, size)]
        if len(table) + sum(face not in table for face in closure) > max_simplices:
            continue
        for key in closure:
            prev = table.get(key)
            if prev is None or val < prev:
                table[key] = val
    return FilteredSet._trusted(frozenset(pool), {k: fin(v) for k, v in table.items()})


def restrict_to_vertices(x: FilteredSet, keep: Sequence[str]) -> FilteredSet:
    """The full filtered subset on a vertex subset, values unchanged.

    Faces of a kept simplex are kept, at the same values, so the restriction
    of a valid set is valid by construction and is not checked again.
    """
    keep_set = frozenset(keep)
    values = {sk: val for sk, val in x.entries if keep_set.issuperset(sk)}
    return FilteredSet._trusted(keep_set, values)


def random_subset_of(rng: random.Random, x: FilteredSet) -> FilteredSet:
    """A random filtered subset of x: restricted support, values bumped up.

    A bump never drops a simplex below its facets, so the subset is valid by
    construction and is not checked again.
    """
    verts = sorted(x.vertices)
    keep = [v for v in verts if rng.random() < 0.7]
    restricted = restrict_to_vertices(x, keep)
    style = rng.random()
    if style < 0.25 or not restricted.entries:
        return restricted
    bumped = {}
    bumps = sorted(fin(v) for v in DEFAULT_VALUES)
    # faces first, so each simplex can rise to dominate its bumped faces
    for sk, val in sorted(restricted.entries, key=lambda e: (len(e[0]), e[0])):
        bump = rng.choice(bumps)
        candidate = max(val, bump)
        for face in facets(sk):
            if face in bumped and bumped[face] > candidate:
                candidate = bumped[face]
        bumped[sk] = candidate
    return FilteredSet._trusted(frozenset(keep), bumped)


def random_pair(rng: random.Random, **kw) -> RelativeFilteredPair:
    x = random_filtration(rng, **kw)
    roll = rng.random()
    if roll < 0.15:
        return pair_of(x)
    if roll < 0.25:
        return pair_of(x, x)
    return pair_of(x, random_subset_of(rng, x))


def random_triple(rng: random.Random) -> tuple[FilteredSet, FilteredSet, FilteredSet]:
    """Nested filtered sets x >= a >= b."""
    x = random_filtration(rng)
    a = random_subset_of(rng, x)
    b = random_subset_of(rng, a)
    return x, a, b


def random_cover(rng: random.Random) -> tuple[FilteredSet, FilteredSet]:
    """Two vertex-restricted subsets whose vertex sets cover the whole."""
    x = random_filtration(rng)
    verts = sorted(x.vertices)
    first = [v for v in verts if rng.random() < 0.6]
    second = [v for v in verts if v not in first or rng.random() < 0.4]
    second = sorted(set(second) | (set(verts) - set(first)))
    if not first:
        first = verts[:1]
    if not second:
        second = verts[-1:]
    return restrict_to_vertices(x, first), restrict_to_vertices(x, second)


def random_excision_parts(rng: random.Random) -> tuple[FilteredSet, FilteredSet]:
    """Two overlapping filtered sets to assemble into a cut-out instance."""
    x_part = random_filtration(rng, pool=("a", "b", "c", "d"))
    carved = random_filtration(rng, pool=("c", "d", "e", "f"))
    return x_part, carved


def _simplex_target(rng: random.Random, sub_needed: bool) -> RelativeFilteredPair:
    """A solid simplex at value 0 with a solid face as subset: a cone target."""
    total_verts = tuple(f"t{i}" for i in range(rng.randint(1, 3)))
    total = standard_simplex(len(total_verts) - 1, 0, total_verts)
    if sub_needed:
        keep = total_verts[: rng.randint(1, len(total_verts))]
        sub = standard_simplex(len(keep) - 1, 0, keep)
        return RelativeFilteredPair(total, sub)
    return pair_of(total)


def random_map_to_cone(rng: random.Random, domain: RelativeFilteredPair,
                       target: RelativeFilteredPair | None = None):
    """A random map into a solid simplex; always valid, and any two such maps
    with the same target are contiguous."""
    if target is None:
        target = _simplex_target(rng, bool(domain.sub.vertices))
    sub_verts = sorted(target.sub.vertices) or sorted(target.total.vertices)
    all_verts = sorted(target.total.vertices)
    vm = {}
    for v in sorted(domain.total.vertices):
        choices = sub_verts if v in domain.sub.vertices else all_verts
        vm[v] = rng.choice(choices)
    return PreservingMap(domain, target, vm)


def random_contiguous_pair(rng: random.Random):
    """Two contiguous maps with the same endpoints."""
    domain = random_pair(rng)
    if rng.random() < 0.3:
        f = random_map_to_cone(rng, domain)
        return f, f
    target = _simplex_target(rng, bool(domain.sub.vertices))
    return (random_map_to_cone(rng, domain, target),
            random_map_to_cone(rng, domain, target))


def random_composable_maps(rng: random.Random):
    """Maps g then f that compose, drawn from a few reliable shapes."""
    style = rng.random()
    if style < 0.5:
        x, a, b = random_triple(rng)
        g = inclusion(pair_of(a, b), pair_of(x, b))
        f = inclusion(pair_of(x, b), pair_of(x, a))
        return f, g
    domain = random_pair(rng)
    mid_target = _simplex_target(rng, bool(domain.sub.vertices))
    g = random_map_to_cone(rng, domain, mid_target)
    f = random_map_to_cone(rng, mid_target)
    return f, g


def random_pair_map(rng: random.Random):
    """A single valid map between pairs, mixing inclusions and collapses."""
    style = rng.random()
    if style < 0.4:
        x, a, b = random_triple(rng)
        return inclusion(pair_of(x, b), pair_of(x, a))
    if style < 0.7:
        x, a, _ = random_triple(rng)
        return inclusion(pair_of(a), pair_of(x))
    domain = random_pair(rng)
    return random_map_to_cone(rng, domain)


def random_interval(rng, obj) -> Interval:
    """An interval with endpoints at the object's critical values."""
    vals = critical_values(obj)
    if not vals:
        return Interval(0, 0)
    i = rng.randrange(len(vals))
    j = rng.randrange(i, len(vals))
    return Interval(vals[i], vals[j])


def _boundary_target_maps(rng):
    """Two maps into a hollow simplex boundary; contiguity is not guaranteed."""
    domain = pair_of(random_filtration(rng))
    target = pair_of(standard_boundary(4, 0, tuple(f"t{i}" for i in range(5))))
    verts = sorted(target.total.vertices)
    f, g = (
        PreservingMap(domain, target,
                      {v: rng.choice(verts) for v in sorted(domain.total.vertices)})
        for _ in range(2)
    )
    return f, g


def _fuzz_instances(rng) -> dict:
    """One seeded instance bundle per axiom id, drawn in a fixed order; A1, A4
    and S2 share the pair's bundle, and A7 and S1 share the cut-out's tag."""
    pair = random_pair(rng)
    on_pair = dict(pair=pair, interval=random_interval(rng, pair), tag=instance_tag(pair))
    f, g = random_composable_maps(rng)
    composable = dict(f=f, g=g, interval=random_interval(rng, g.domain),
                      tag=instance_tag((f, g)))
    h = random_pair_map(rng)
    natural = dict(f=h, interval=random_interval(rng, h.domain), tag=instance_tag(h))
    cf, cg = _boundary_target_maps(rng) if rng.random() < 0.25 else random_contiguous_pair(rng)
    contiguous = dict(f=cf, g=cg, interval=random_interval(rng, cf.domain),
                      tag=instance_tag((cf, cg)))
    alpha = rng.choice(list(DEFAULT_VALUES))
    ivs = tuple(Interval(lo, lo + rng.choice((0, 1, 2))) for lo in (alpha - 1, alpha, alpha + 1))
    x_part, carved = random_excision_parts(rng)
    cut_interval = random_interval(rng, union(x_part, carved))
    cut_tag = instance_tag((x_part, carved))
    return {
        "A1": on_pair,
        "A2": composable,
        "A3": natural,
        "A4": on_pair,
        "A5": contiguous,
        "A6": dict(alpha=alpha, intervals=ivs, tag=f"point-{alpha}"),
        "A7": dict(x_part=x_part, a=carved, interval=cut_interval, tag=cut_tag),
        "S1": dict(x=x_part, y=carved, interval=cut_interval, tag=cut_tag),
        "S2": on_pair,
        "S3": dict(alpha=alpha, intervals=ivs, tag=f"simplex-{alpha}"),
    }


def _instance_seeds(count: int, seed: int) -> list[int]:
    """The 64-bit seed of each of ``count`` fuzz instances, drawn in order
    from ``Random(seed)``."""
    master = random.Random(seed)
    return [master.getrandbits(64) for _ in range(count)]


def _instance_reports(instance_seed: int, field) -> list[AxiomReport]:
    """The reports of one fuzz instance, in axiom order."""
    instances = _fuzz_instances(random.Random(instance_seed))
    runs = {}  # A4/S2 and A7/S1 run one check on the same objects
    return [verify_axiom(axiom_id, field, _runs=runs, **instances[axiom_id])
            for axiom_id in AXIOM_IDS]


def fuzz_axiom_reports(count: int, seed: int, field=GF2) -> list[AxiomReport]:
    """Seeded random instances for every axiom; deterministic for a seed."""
    return [rep for instance_seed in _instance_seeds(count, seed)
            for rep in _instance_reports(instance_seed, field)]


def _allowed_cpus() -> set[int]:
    """The CPUs this process may run on, or none where it cannot fork fuzz
    workers: ``fork`` or CPU affinity is missing, or another thread runs,
    which a forked child would not hold."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return set()
    if threading.active_count() > 1:
        return set()
    return os.sched_getaffinity(0)


def _run_share(seeds, field) -> tuple[list, Exception | None]:
    """The reports of each instance in turn, up to the first that raises,
    and that exception (None when none raises)."""
    done = []
    try:
        for instance_seed in seeds:
            done.append(_instance_reports(instance_seed, field))
    except Exception as exc:
        return done, exc
    return done, None


def _worker(out_fd: int, inherited: list[int], cpu: int, seeds, field):
    """The body of a forked worker: close the pipe ends it inherited, move to
    its CPU, run its share, pickle the reports and the exception's class and
    arguments to ``out_fd``, and end the process.  It writes nothing to
    stdout or stderr."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        os.sched_setaffinity(0, {cpu})
        done, exc = _run_share(seeds, field)
        error = None if exc is None else (type(exc), exc.args)
        with os.fdopen(out_fd, "wb") as out:
            pickle.dump((done, error), out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _unpickled_share(worker: int, data: bytes, status: int) -> tuple[list, Exception | None]:
    """A worker's reports and exception, rebuilt from what its pipe carried."""
    try:
        done, error = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):
        if os.WIFSIGNALED(status):
            how = f"was killed by signal {os.WTERMSIG(status)}"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        raise ChildProcessError(f"fuzz worker {worker} {how} without a result") from None
    if error is None:
        return done, None
    cls, args = error
    exc = cls.__new__(cls)
    exc.args = args
    return done, exc


def _spread_fuzz_reports(count: int, seed: int, field) -> list[AxiomReport]:
    """``fuzz_axiom_reports(count, seed, field)``, with the instances spread
    over one process per CPU that this process may run on.

    This process is worker 0 and forks the others; instance i runs in worker
    i mod k, and each child's reports come back pickled through a pipe and
    are put back in instance order.  Instance 0 runs before the fork, so
    that the workers inherit the imports and the memos of the interned sets
    that it loads instead of each loading them again.  Worker w is pinned
    to the w-th of the allowed CPUs until it ends, this process until the
    reports are read: left to the scheduler, a forked child can share its
    parent's CPU for the whole run while another CPU idles.  Where instances
    raise, the exception of the first of them is raised here, with its
    class and arguments, as the serial loop would raise it.  Every child is
    reaped before this returns or raises, and killed first if its result
    is not read.
    """
    allowed = _allowed_cpus()
    cpus = sorted(allowed)[:count]
    k = len(cpus)
    if k < 2:
        return fuzz_axiom_reports(count, seed, field)
    seeds = _instance_seeds(count, seed)
    first = _instance_reports(seeds[0], field)
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (worker, pid, read end of its pipe)
    all_read = False
    try:
        os.sched_setaffinity(0, {cpus[0]})
        for worker in range(1, k):
            in_fd, out_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(out_fd, [in_fd, *(pipe.fileno() for _, _, pipe in children)],
                        cpus[worker], seeds[worker::k], field)
            os.close(out_fd)
            children.append((worker, pid, os.fdopen(in_fd, "rb")))
        done, exc = _run_share(seeds[k::k], field)
        shares = [([first, *done], exc)]
        payloads = [pipe.read() for _, _, pipe in children]
        all_read = True
    finally:
        os.sched_setaffinity(0, allowed)
        statuses = []
        for _, pid, pipe in children:
            pipe.close()
            if not all_read:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    shares.extend(_unpickled_share(worker, data, status)
                  for (worker, _, _), data, status in zip(children, payloads, statuses))
    reports = []
    for i in range(count):
        done, exc = shares[i % k]
        if i // k == len(done):
            raise exc
        reports.extend(done[i // k])
    return reports
