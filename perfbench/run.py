"""Benchmark of the squaretiled public API.

Run from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

One process, one caller, closed loop: each call starts when the previous
one has returned.  Inputs come from ``--seed`` only.  Every output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run is made with every layer in ``LAYERS`` wrapped by
:mod:`tracer` and the metrics are the per-layer ones.  Timings are CPU
time (see :func:`cpu_seconds`).  ``layers.json`` says which layers each
workload loads and which end-to-end metric each per-layer metric should
move.

Workloads (see ``layers.json`` for the reasons):

``corpus``
    rounds of ``CORPUS_BATCH`` independent random genus-3 origamis with
    6-12 squares, each classified at direction bound 3.
``orbits``
    rounds of a census: random genus-3 origamis with 5-7 squares are drawn
    until ``ORBIT_COUNT`` distinct SL(2,Z)-orbits are found; each orbit is
    expanded by breadth-first search over ``T`` and ``S`` (deduplicated by
    canonical form) and every member is classified.  The members of an
    orbit must all get the same status.
``affine``
    rounds over the reference surface and surfaces with nontrivial affine
    stabilizers: ``AFFINE_REPEATS`` classifications of the reference and
    ``squaretiled report`` calls, the ``CATALOGS`` and the ``monodromy``
    command path over ``MONODROMY_SURFACES``; the order is shuffled by the
    seed.

A run starts a new round while the previous round's duration still fits
in ``--seconds``, and always runs at least one.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import types
from collections import Counter

from tracer import LAYER, OUTCOME, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

MODULES = ("surface", "cylinders", "homology", "jump", "transverse",
           "monodromy", "pipeline", "cli")
SETUPS = 9
CERTIFIED = "WollmilchsauEquivalent"
UNDETERMINED = "Undetermined"

CORPUS_BATCH = 50
CORPUS_SQUARES = (6, 12)
ORBIT_COUNT = 40  # of the 45 genus-3 orbits with 5-7 squares
ORBIT_SQUARES = (5, 7)
AFFINE_REPEATS = 100
# (stratum, shape, expected number of diagrams)
CATALOGS = (((1, 1), "one_cylinder", 1), ((2,), "one_cylinder", 1),
            ((1, 1, 1, 1), "case6", 1), ((1, 1, 1, 1), "one_cylinder", 4))
REFERENCE_LINE = 'origami h="(0 1 2 3)(4 7 6 5)" v="(0 4 2 6)(1 5 3 7)"'
# (surface, expected closure order or None for an infinite group,
#  expected forni_upper_bound(o, 2) or None for no check)
MONODROMY_SURFACES = ((REFERENCE_LINE, 96, 4),
                      ('origami h="(1 3)(2 4)" v="(0 3 4)"', None, None))
# reaches a transverse crossing cylinder and period forcing at bound 3
WARM_UP_LINE = 'origami n=7 h="(1 2 6 5 3)" v="(0 4 5 6 1 3)"'

# (layer, defining module, qualified name) for the traced run
LAYERS = (
    ("cylinders.periodic_decomposition", "cylinders", "periodic_decomposition"),
    ("cylinders.classify_case", "cylinders", "classify_case"),
    ("cylinders.canonical_key", "cylinders", "CylinderDiagram.canonical_key"),
    ("cylinders.horizontal_decomposition", "cylinders",
     "horizontal_decomposition"),
    ("homology.dual_graph", "homology", "dual_graph"),
    ("homology.HomologyBasis", "homology", "HomologyBasis.__init__"),
    ("homology.word_action_matrix", "homology", "word_action_matrix"),
    ("homology.core_span_rank", "homology", "core_span_rank"),
    ("transverse.find_crossing_cylinder", "transverse",
     "find_crossing_cylinder"),
    ("transverse.window_feasible", "transverse", "window_feasible"),
    ("jump.case3_verdict", "jump", "case3_verdict"),
    ("jump.case6_moduli_forcing", "jump", "case6_moduli_forcing"),
    ("surface.canonical_form", "surface", "canonical_form"),
    ("surface.act_sl2z", "surface", "act_sl2z"),
    ("surface.origami_isomorphism", "surface", "origami_isomorphism"),
    ("pipeline.classify_surface", "pipeline", "classify_surface"),
    ("pipeline.wollmilchsau_equivalent", "pipeline", "wollmilchsau_equivalent"),
    ("pipeline.enumerate_diagrams", "pipeline", "enumerate_diagrams"),
    ("monodromy.stabilizer_generators", "monodromy", "stabilizer_generators"),
    ("monodromy.homology_action", "monodromy", "homology_action"),
    ("monodromy.restrict_to_zero_holonomy", "monodromy",
     "restrict_to_zero_holonomy"),
    ("monodromy.closure_classify", "monodromy", "closure_classify"),
    ("monodromy.forni_upper_bound", "monodromy", "forni_upper_bound"),
    ("cli.main", "cli", "main"),
)
OUTCOMES = {
    "transverse.find_crossing_cylinder": lambda w: int(w is not None),
    "monodromy.closure_classify":
        lambda r: r.order if r.is_finite else len(r.witness or ()),
}


def cpu_seconds():
    """CPU seconds used by this process and its waited-for children.

    Timings use CPU time, not wall time: the package is single-process
    Python under the interpreter lock, so on an idle machine the two agree,
    while on a shared virtual machine wall time also counts the time the
    host runs other guests, which varies from run to run."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def set_up():
    """Import every squaretiled module from scratch and build the fixed
    inputs; return the seconds it took and a namespace of the modules and
    inputs."""
    for name in [m for m in sys.modules
                 if m == "squaretiled" or m.startswith("squaretiled.")]:
        del sys.modules[name]
    t0 = cpu_seconds()
    api = types.SimpleNamespace(**{
        m: importlib.import_module("squaretiled." + m)
        for m in MODULES + ("errors",)})
    parse = api.surface.parse_origami
    api.reference = api.pipeline.reference_surface()
    api.warm_up_surface = parse(WARM_UP_LINE)
    api.monodromy_set = [(parse(line), order, bound)
                         for line, order, bound in MONODROMY_SURFACES]
    return cpu_seconds() - t0, api


def classify(api, o):
    return api.pipeline.classify_surface(o, direction_bound=3)


def cli_report(api):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.cli.main(["report"])
    return code, out.getvalue()


def monodromy_path(api, o):
    """The ``squaretiled monodromy`` command's computation at word bound 2
    and direction bound 2."""
    mono = api.monodromy
    basis = api.homology.homology_basis(o)
    gens = mono.stabilizer_generators(o, 2)
    matrices = [mono.homology_action(o, gen, basis) for gen in gens]
    restricted = mono.restrict_to_zero_holonomy(matrices, basis)
    return mono.closure_classify(restricted), mono.forni_upper_bound(o, 2)


def warm_up(api):
    """Call every layer once on small fixed inputs, so lazy set-up is paid
    before timing and every layer is seen by a traced run."""
    classify(api, api.reference)
    classify(api, api.warm_up_surface)
    cli_report(api)
    api.pipeline.enumerate_diagrams((2,), "one_cylinder")
    monodromy_path(api, api.reference)
    api.surface.canonical_form(api.surface.act_sl2z(api.reference, ["T"]))


def random_genus3(api, rng, low, high):
    """A uniformly random transitive permutation pair of genus 3 on
    ``low``..``high`` squares (the square count is drawn first)."""
    n = rng.randint(low, high)
    while True:
        h, v = list(range(n)), list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            o = api.surface.build_origami(h, v)
        except api.errors.NotTransitive:
            continue
        if api.surface.singularity_data(o).genus == 3:
            return o


class Run:
    """Samples and check outcomes of one measured run.

    Every operation is attempted once.  It fails when it raises or a check
    on its output fails; a failure is also *wrong* (``correct`` false)
    unless it is an orbit whose only disagreement is an ``Undetermined``
    member, which is an inconclusive answer rather than a false one."""

    def __init__(self, api):
        self.api = api
        self.classify_ms = []
        self.statuses = Counter()
        self.rounds = []
        self.wall_s = 0.0
        self.orbits = 0
        self.report_ms = []
        self.catalog_s = []
        self.monodromy_s = []
        self.attempted = self.failed = self.wrong = 0
        self.problems = []

    def classify(self, o):
        t0 = cpu_seconds()
        verdict = classify(self.api, o)
        self.classify_ms.append((cpu_seconds() - t0) * 1000)
        self.statuses[verdict.status] += 1
        return verdict

    def operation(self, what, fn, *args):
        self.attempted += 1
        try:
            problem, wrong = fn(*args)
        except Exception as exc:  # a raising operation is counted, not fatal
            problem, wrong = "raised %r" % exc, True
        if problem:
            self.failed += 1
            self.wrong += wrong
            if len(self.problems) < 10:
                self.problems.append("%s: %s" % (what, problem))

    def certified_wrongly(self, o, verdict):
        return (verdict.status == CERTIFIED and
                self.api.surface.origami_isomorphism(o, self.api.reference)
                is None)

    # -- corpus --------------------------------------------------------

    def corpus_round(self, rng):
        batch = [random_genus3(self.api, rng, *CORPUS_SQUARES)
                 for _ in range(CORPUS_BATCH)]
        t0 = cpu_seconds()
        for o in batch:
            self.operation("classify", self.corpus_op, o)
        self.rounds.append(cpu_seconds() - t0)

    def corpus_op(self, o):
        if self.certified_wrongly(o, self.classify(o)):
            return "certified %s" % o, True
        return None, False

    # -- orbits --------------------------------------------------------

    def orbits_round(self, rng):
        canonical = self.api.surface.canonical_form
        seen = set()
        t0 = cpu_seconds()
        for _ in range(ORBIT_COUNT):
            while True:
                o = canonical(random_genus3(self.api, rng, *ORBIT_SQUARES))
                if o not in seen:
                    break
            members = self.orbit(o)
            seen |= members
            self.operation("orbit", self.orbit_op, members)
            self.orbits += 1
        self.rounds.append(cpu_seconds() - t0)

    def orbit(self, o):
        act, canonical = self.api.surface.act_sl2z, self.api.surface.canonical_form
        members, frontier = {o}, [o]
        while frontier:
            x = frontier.pop()
            for letter in ("T", "S"):
                y = canonical(act(x, [letter]))
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return members

    def orbit_op(self, members):
        statuses = set()
        for m in members:
            verdict = self.classify(m)
            if self.certified_wrongly(m, verdict):
                return "certified %s" % m, True
            statuses.add(verdict.status)
        if len(statuses) > 1:
            return ("the %d members of the orbit of %s get %s"
                    % (len(members), min(members, key=str), sorted(statuses)),
                    len(statuses - {UNDETERMINED}) > 1)
        return None, False

    # -- affine --------------------------------------------------------

    def affine_round(self, rng):
        ops = ([("classify reference", self.reference_op)] * AFFINE_REPEATS
               + [("report", self.report_op)] * AFFINE_REPEATS
               + [("catalog", self.catalog_op, c) for c in CATALOGS]
               + [("monodromy", self.monodromy_op, s)
                  for s in self.api.monodromy_set])
        rng.shuffle(ops)
        self.catalog_s.append(0.0)
        self.monodromy_s.append(0.0)
        t0 = cpu_seconds()
        for what, fn, *args in ops:
            self.operation(what, fn, *args)
        self.rounds.append(cpu_seconds() - t0)

    def reference_op(self):
        status = self.classify(self.api.reference).status
        if status != CERTIFIED:
            return "reference classified %s" % status, True
        return None, False

    def report_op(self):
        t0 = cpu_seconds()
        code, text = cli_report(self.api)
        self.report_ms.append((cpu_seconds() - t0) * 1000)
        if code != 0 or "classification: %s" % CERTIFIED not in text:
            return "report exit %d without the reference verdict" % code, True
        return None, False

    def catalog_op(self, catalog):
        stratum, shape, expected = catalog
        t0 = cpu_seconds()
        found = len(self.api.pipeline.enumerate_diagrams(stratum, shape))
        self.catalog_s[-1] += cpu_seconds() - t0
        if found != expected:
            return "%s/%s has %d diagrams, expected %d" % (
                stratum, shape, found, expected), True
        return None, False

    def monodromy_op(self, entry):
        o, order, bound = entry
        t0 = cpu_seconds()
        closure, forni = monodromy_path(self.api, o)
        self.monodromy_s[-1] += cpu_seconds() - t0
        if order is None and closure.is_finite:
            return "%s: restricted closure Finite, expected infinite" % o, True
        if order is not None and (not closure.is_finite or
                                  closure.order != order):
            return "%s: restricted closure %s %s, expected Finite %d" % (
                o, closure.status, closure.order, order), True
        if bound is not None and forni.upper_bound != bound:
            return "%s: Forni bound %d, expected %d" % (
                o, forni.upper_bound, bound), True
        return None, False


ROUNDS = {"corpus": Run.corpus_round, "orbits": Run.orbits_round,
          "affine": Run.affine_round}


def measure(api, workload, seed, seconds):
    run = Run(api)
    rng = random.Random("%s-%d" % (workload, seed))
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ROUNDS[workload](run, rng)
        now = time.perf_counter()
        run.wall_s = now - start
        if run.wall_s + (now - t0) > seconds:
            return run


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(run, setups):
    """The ``BENCHMARK.json`` end-to-end metrics as ``name: (value, unit,
    base)``, where base states the samples behind the value."""
    ms = run.classify_ms
    calls = "%d classify_surface calls" % len(ms)
    return {
        "setup_s": (statistics.median(setups), "s",
                    "median of %d set-ups" % len(setups)),
        "surfaces_per_s": (len(ms) / (sum(ms) / 1000), "1/s", calls),
        "classify_p50_ms": (statistics.median(ms), "ms", calls),
        "classify_p90_ms": (p90(ms), "ms", calls),
        "round_s": (statistics.median(run.rounds), "s",
                    "median of %d rounds" % len(run.rounds)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", "whole process"),
    }


def summary(run):
    """Workload-specific figures printed beside the JSON metrics."""
    total = len(run.classify_ms)
    rows = [("wall_s", run.wall_s, "s", "measured phase, by the wall clock"),
            ("undetermined_frac", run.statuses[UNDETERMINED] / total,
             "ratio", "%d classifications" % total),
            ("failed_frac", run.failed / run.attempted, "ratio",
             "%d operations" % run.attempted)]
    if run.orbits:
        rows.append(("orbits_per_s", run.orbits / sum(run.rounds), "1/s",
                     "%d orbits" % run.orbits))
    if run.report_ms:
        rows += [("report_p50_ms", statistics.median(run.report_ms), "ms",
                  "%d reports" % len(run.report_ms)),
                 ("report_p90_ms", p90(run.report_ms), "ms",
                  "%d reports" % len(run.report_ms)),
                 ("catalog_s", statistics.median(run.catalog_s), "s",
                  "%d rounds" % len(run.catalog_s)),
                 ("monodromy_s", statistics.median(run.monodromy_s), "s",
                  "%d rounds" % len(run.monodromy_s))]
    return rows


def per_layer(tracer, run, overhead):
    calls, self_s, outcomes = {}, {}, {}
    for rec, own in zip(tracer.spans, tracer.self_times()):
        layer = rec[LAYER]
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + own
        if rec[OUTCOME] is not None:
            outcomes[layer] = outcomes.get(layer, 0) + rec[OUTCOME]
    metrics = {}
    for layer, _, _ in LAYERS:
        metrics[layer + ".calls"] = (calls.get(layer, 0), "count", "")
        metrics[layer + ".self_s"] = (self_s.get(layer, 0.0), "s", "")
    crossing = "transverse.find_crossing_cylinder"
    metrics["transverse.witness_found_frac"] = (
        outcomes.get(crossing, 0) / max(calls.get(crossing, 0), 1), "ratio",
        "non-None witnesses per call")
    classified = calls.get("pipeline.classify_surface", 0)
    directions = sum(1 for rec in tracer.spans
                     if rec[LAYER] == "cylinders.periodic_decomposition"
                     and tracer.has_ancestor(rec, "pipeline.classify_surface"))
    metrics["pipeline.directions_per_surface"] = (
        directions / max(classified, 1), "count",
        "decompositions per classify_surface call")
    metrics["pipeline.undetermined_frac"] = (
        run.statuses[UNDETERMINED] / len(run.classify_ms), "ratio",
        "%d classify_surface calls" % len(run.classify_ms))
    metrics["monodromy.closure_elements"] = (
        outcomes.get("monodromy.closure_classify", 0), "count",
        "group orders and witness lengths, summed over calls")
    metrics["trace.overhead_frac"] = (overhead, "ratio",
                                      "traced over untraced warm-up, minus 1, "
                                      "median of 3")
    return metrics


def trace_overhead(api):
    """Median over three pairs of the traced over the untraced CPU time of
    a warm-up, minus one."""
    ratios = []
    for _ in range(3):
        t0 = cpu_seconds()
        warm_up(api)
        untraced = cpu_seconds() - t0
        probe = Tracer()
        probe.install(LAYERS, OUTCOMES)
        try:
            t0 = cpu_seconds()
            warm_up(api)
            ratios.append((cpu_seconds() - t0) / untraced - 1)
        finally:
            probe.uninstall()
    return statistics.median(ratios)


def environment():
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "squaretiled", "__init__.py")):
        print("error: no squaretiled sources under %s" % SRC, file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    env = dict(environment(), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env))
    setups = []
    for _ in range(SETUPS):
        seconds, api = set_up()
        setups.append(seconds)
    warm_up(api)

    if args.trace:
        overhead = trace_overhead(api)
        tracer = Tracer()
        tracer.install(LAYERS, OUTCOMES)
        try:
            warm_up(api)
            run = measure(api, args.workload, args.seed, args.seconds)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, run, overhead)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, "trace-%s.json" % args.workload),
                    {"env": env, "metrics": {k: v[0] for k, v in
                                             metrics.items()}})
    else:
        run = measure(api, args.workload, args.seed, args.seconds)
        metrics = end_to_end(run, setups)

    rows = summary(run) + [(k,) + v for k, v in metrics.items()]
    for name, value, unit, base in rows:
        print("%-42s %14.6g %-6s %s" % (name, value, unit, base))
    for problem in run.problems:
        print("failed: " + problem)
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
