"""The benchmark's workloads and their correctness checks.

Each workload is a sequence of units; a unit is what the measuring loop
starts or skips as a whole.  A unit records one latency per operation the
user waits for (a certified spectrum, a single-frequency query, a pass over
the oracle boxes), filed under the operation's input so that repeats of one
input can be told apart, and checks every output against `reference`.  Only
the engine calls are timed, and only they are traced.  Failures and undecided
answers are counted, never dropped.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import time

import numpy as np

from defect_bands import cli, model, oracle, spectrum

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "src", "defect_bands",
                       "configs")

#: resolvent queries keep this distance from the analytic spectrum
RESOLVENT_MARGIN = 0.05

#: criterion 7's bound on the relative resolvent residual
RESIDUAL_BOUND = 1e-8

#: branch samples and band/branch edges vs. their closed forms (criterion 4)
BRANCH_TOL = 1e-6

#: isolated points and oracle eigenvalues vs. their references
POINT_TOL = 1e-8

#: periodic-box identity (criterion 5)
BOX_TOL = 1e-10


def config_path(name):
    """Bundled config by file name; "nested" is the benchmark's own."""
    if name == "nested":
        return os.path.join(HERE, "nested_line_point.json")
    return os.path.join(CONFIGS, name)


class Timer:
    """Times engine calls; traces exactly those calls when a tracer is set."""

    def __init__(self):
        self.tracer = None

    @contextlib.contextmanager
    def __call__(self, sink):
        """Append the block's wall seconds to `sink`, also when it raises."""
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            sink.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.active = False


class Tally:
    """Operation latencies and failure accounting of one run."""

    def __init__(self):
        self.samples = {}        # operation input -> its latencies, seconds
        self.attempted = 0
        self.failed = 0
        self.undecided = 0       # inconclusive verdicts, refused resolvents
        self.decisions = 0       # verdicts and resolvents asked for
        self.ref_err = 0.0
        self.notes = []          # first failure descriptions

    def sink(self, key):
        """The latency list of the operation on input `key`."""
        return self.samples.setdefault(key, [])

    @property
    def latencies(self):
        """Every latency of the run, repeats included."""
        return [x for times in self.samples.values() for x in times]

    def best(self):
        """Each input's fastest repeat, in seconds."""
        return [min(times) for times in self.samples.values() if times]

    def op(self, problems):
        """Count one attempted operation; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.extend(problems[:max(0, 20 - len(self.notes))])

    def error(self, err):
        self.ref_err = max(self.ref_err, float(err))


class Workload:
    """Shared set-up: configs, in-process loading, the engine timer."""

    configs = ()

    #: units repeat with this period, each place holding one set of inputs;
    #: the measuring loop runs at least one whole cycle
    cycle = 1

    def __init__(self, seed, out_root):
        self.seed = int(seed)
        self.out_root = out_root
        self.timer = Timer()
        self.scan_grid = ()
        self.nested_point = ref.NESTED_POINT

    @property
    def setup_paths(self):
        return [config_path(c) for c in self.configs]

    def prepare(self):
        """Load and validate every config (traced like the set-up probe)."""
        self.loaded = {}
        with self.timer([]):
            for name in self.configs:
                spec, grids = cli.spec_from_config(
                    cli.load_config(config_path(name)))
                model.validate(spec)
                self.loaded[name] = (spec, grids)
        if "nested" in self.configs:
            self.nested_point = ref.nested_point_mpmath()

    def details(self):
        return {}


class SpectrumWorkload(Workload):
    """`cli.main(["spectrum", ...])` on one model, CSV written to a temp dir.

    The inputs are the config file alone, with its grid sizes replaced by
    `grid_sizes` when given; the CLI takes no seed (its probe frequencies
    are seeded inside the engine).
    """

    def __init__(self, seed, out_root, model_name, config, grid_sizes=None):
        super().__init__(seed, out_root)
        self.model = model_name
        self.configs = (config,)
        self.grid_sizes = grid_sizes
        self.first_bytes = None
        self.csv_digest = None

    def prepare(self):
        super().prepare()
        self.problem = config_path(self.configs[0])
        if self.grid_sizes is not None:
            with open(self.problem, encoding="utf-8") as fh:
                data = json.load(fh)
            data["grids"].update(self.grid_sizes)
            self.problem = os.path.join(self.out_root, "problem.json")
            with open(self.problem, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        spec, self.grids = cli.spec_from_config(cli.load_config(self.problem))
        window = spec.omega_window
        self.scan_grid = np.linspace(window[0], window[1],
                                     self.grids.omega_points)

    def unit(self, index, tally):
        out_dir = os.path.join(self.out_root, f"spectrum-{index}")
        os.makedirs(out_dir)
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    self.timer(tally.sink("spectrum")):
                code = cli.main([
                    "spectrum", "--config", self.problem,
                    "--out", os.path.join(out_dir, "spectrum.csv")])
        except Exception as exc:    # an engine crash is a failed operation
            tally.op([f"spectrum run {index} raised {exc!r}"])
            return
        finally:
            files = {}
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    files[name] = fh.read()
            shutil.rmtree(out_dir)
        tally.op(self._check(code, stdout.getvalue(), files, tally))

    def _check(self, code, text, files, tally):
        problems = []

        def need(ok, what):
            if not ok:
                problems.append(what)
            return ok

        need(code == 0, f"exit code {code}")
        probe = re.search(r"probes: (\d+), disagreements: (\d+), "
                          r"inconclusive: (\d+)", text)
        if need(probe is not None, "no probe report"):
            n_probes, disagree, undecided = (int(x) for x in probe.groups())
            need(disagree == 0, f"{disagree} probe disagreements")
            tally.decisions += n_probes
            tally.undecided += undecided
        if self.first_bytes is None:
            self.first_bytes = files
            digest = hashlib.sha256()
            for name, data in files.items():
                digest.update(name.encode() + b"\0" + data + b"\0")
            self.csv_digest = digest.hexdigest()
        need(files == self.first_bytes, "CSV bytes differ from the first run")

        rows = _csv_rows(files.get("spectrum.csv", b""))
        got = sorted((r[0], int(r[1]), float(r[2]), float(r[3]))
                     for r in rows[1:])
        want = sorted(ref.spectrum_components(self.model, self.nested_point))
        if need([g[:2] for g in got] == [w[:2] for w in want],
                f"components {got} vs analytic {want}"):
            for g, w in zip(got, want):
                tol = POINT_TOL if g[0] == "isolated_point" else BRANCH_TOL
                err = max(abs(g[2] - w[2]), abs(g[3] - w[3]))
                tally.error(err)
                need(err <= tol, f"component {g} vs analytic {w}")

        branch = _csv_rows(files.get("spectrum_branch_codim1.csv", b""))[1:]
        nodes = ref.grid_axis(self.grids.k_points)
        if need(len(branch) == len(nodes),
                f"{len(branch)} branch samples, expected one per k node "
                f"({len(nodes)})"):
            for (k2, omega), node in zip(branch, nodes):
                k2, omega = float(k2), float(omega)
                err = abs(omega - ref.branch_omega(k2))
                tally.error(err)
                need(err <= BRANCH_TOL and abs(k2 - node) <= 1e-12,
                     f"branch sample ({k2}, {omega})")
        if self.model == "nested":
            point = _csv_rows(files.get("spectrum_branch_codim2.csv", b""))[1:]
            if need(len(point) == 1, f"codim-2 rows {point}"):
                err = abs(float(point[0][0]) - self.nested_point)
                tally.error(err)
                need(err <= POINT_TOL,
                     f"isolated point {point[0][0]} unmatched")
        return problems

    def report(self, tally):
        return {"spectrum_s": (_median(tally.latencies), "s"),
                "inconclusive_frac": (_frac(tally.undecided, tally.decisions),
                                      "fraction")}

    def details(self):
        return {"csv_sha256": self.csv_digest}


def _csv_rows(data):
    return [line.split(",") for line in data.decode("utf-8").splitlines()]


#: model tag and config of the query stream
QUERY_MODELS = (("chain", "chain_point_defect.json"),
                ("line", "square_line_defect.json"),
                ("nested", "nested"))

#: membership queries, and as many resolvent queries, per model and block;
#: the design names the models and the two query kinds but no traffic
#: weights, so every model and kind gets the same share
QUERIES_PER_KIND = 5

#: blocks in a run's query set: 210 queries, 35 of each model and kind, few
#: enough that a run repeats each about 8 times, and enough that the seed
#: moves the mean of their latencies by a few percent only
QUERY_BLOCKS = 7

#: step of the golden-ratio (Kronecker) sequence
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class QueryWorkload(Workload):
    """A seeded closed-loop stream of single-frequency queries, one client.

    A unit is a block holding each model's queries in seeded order, so
    every prefix of whole blocks has the same composition.  The seed fixes
    QUERY_BLOCKS blocks; units cycle through them, so every query is asked
    once per pass and the run measures each input several times.  Membership
    frequencies cover the model's window, band edges included; resolvent
    frequencies cover the window minus the analytic spectrum dilated by
    RESOLVENT_MARGIN and get seeded `trig_vector` right-hand sides.  Both
    follow a golden-ratio sequence from a seeded start: every interval of
    frequencies, such as the narrow band-edge zones where one query costs a
    second, receives its share of queries to within about one, whatever the
    seed and however many blocks a run completes.
    """

    configs = tuple(c for _, c in QUERY_MODELS)
    cycle = QUERY_BLOCKS

    def __init__(self, seed, out_root):
        super().__init__(seed, out_root)
        self.blocks = {}
        self.starts = np.random.default_rng(self.seed).uniform(
            size=(len(QUERY_MODELS), 2))

    def block(self, index):
        """The queries of block `index`: (model, kind, omega, coeffs)."""
        if index in self.blocks:
            return self.blocks[index]
        rng = np.random.default_rng([self.seed, index])
        queries = []
        count = QUERIES_PER_KIND
        for (tag, config), start in zip(QUERY_MODELS, self.starts):
            spec, _ = self.loaded[config]
            lo, hi = spec.omega_window
            for u in _golden(start[0], index * count, count):
                queries.append((tag, "membership", lo + u * (hi - lo), None))
            pieces = ref.outside_intervals(tag, (lo, hi), RESOLVENT_MARGIN,
                                           self.nested_point)
            for u in _golden(start[1], index * count, count):
                coeffs = {}
                for _ in range(int(rng.integers(1, 5))):
                    offset = tuple(int(x) for x in rng.integers(
                        -3, 4, size=spec.lattice_dim))
                    coeffs[offset] = complex(rng.normal(), rng.normal())
                queries.append((tag, "resolvent", _place(pieces, u), coeffs))
        queries = [queries[i] for i in rng.permutation(len(queries))]
        self.blocks[index] = queries
        return queries

    def unit(self, index, tally):
        configs = dict(QUERY_MODELS)
        block = index % QUERY_BLOCKS
        for slot, (tag, kind, omega, coeffs) in enumerate(self.block(block)):
            spec, grids = self.loaded[configs[tag]]
            sink = tally.sink((block, slot))
            tally.decisions += 1
            what = f"{kind} {tag} omega={omega!r}"
            try:
                if kind == "membership":
                    with self.timer(sink):
                        cert = spectrum.membership(spec, omega, grids)
                    if cert.status == "inconclusive":
                        tally.op(self._undecided(tally, tag, spec, omega,
                                                 what))
                        continue
                    wrong = ref.membership_wrong(tag, omega, cert.status,
                                                 self.nested_point)
                    tally.op([f"{what}: verdict {cert.status}"] if wrong
                             else [])
                    continue
                g = spectrum.trig_vector(
                    spec.lattice_dim,
                    {off: np.array([v]) for off, v in coeffs.items()})
                try:
                    with self.timer(sink):
                        sol = spectrum.resolvent_apply(spec, omega, g, grids)
                except spectrum.UncertifiedLevel as exc:
                    # the refusal names the membership verdict behind it
                    found = re.search(r"membership: (\w+)", str(exc))
                    status = found.group(1) if found else "inconclusive"
                    if ref.membership_wrong(tag, omega, status,
                                            self.nested_point):
                        tally.op([f"{what}: refused, verdict {status}"])
                    else:
                        tally.op(self._undecided(tally, tag, spec, omega,
                                                 what))
                    continue
                residual = ref.resolvent_residual(tag, omega, sol.f_tab,
                                                  coeffs, sol.n)
                tally.error(residual)
                bad = max(residual, sol.residual) > RESIDUAL_BOUND
                tally.op([f"{what}: residual {residual:.3e} "
                          f"(engine {sol.residual:.3e})"] if bad else [])
            except Exception as exc:    # a crash is a failed query
                tally.op([f"{what}: raised {exc!r}"])

    def _undecided(self, tally, tag, spec, omega, what):
        """Count an undecided answer; its problems if it should be decided.

        The engine leaves undecided only frequencies within band_guard of
        some level's spectrum; farther than band_guard + RESOLVENT_MARGIN
        from every edge, an undecided answer is a failure.
        """
        tally.undecided += 1
        margin = spec.tolerances.band_guard + RESOLVENT_MARGIN
        dist = ref.edge_distance(tag, omega, self.nested_point)
        if dist <= margin:
            return []
        return [f"{what}: undecided {dist:.3g} from the nearest spectrum "
                f"edge (margin {margin:.3g})"]

    def report(self, tally):
        lat_ms = np.array(tally.latencies) * 1e3
        p95 = float(np.percentile(lat_ms, 95))
        return {"query_p50_ms": (float(np.median(lat_ms)), "ms"),
                "query_p95_ms": (p95, "ms"),
                "query_p95_beyond": (int(np.sum(lat_ms > p95)), "count"),
                "query_per_s": (len(lat_ms) / float(np.sum(lat_ms) / 1e3),
                                "1/s"),
                "inconclusive_frac": (_frac(tally.undecided, tally.decisions),
                                      "fraction")}

    def details(self):
        """Digest of the run's query set."""
        digest = hashlib.sha256()
        for index in range(QUERY_BLOCKS):
            digest.update(repr(self.block(index)).encode())
        return {"stream_sha256": digest.hexdigest()}


def _golden(start, first, count):
    """Terms first..first+count-1 of frac(start + j * GOLDEN)."""
    return [(start + j * GOLDEN) % 1.0 for j in range(first, first + count)]


def _place(pieces, where):
    """The point at fraction `where` of the pieces' total length."""
    total = sum(hi - lo for lo, hi in pieces)
    offset = where * total
    for lo, hi in pieces:
        if offset <= hi - lo:
            return lo + offset
        offset -= hi - lo
    return pieces[-1][1]


class OracleWorkload(Workload):
    """One pass over the truncation boxes, through the oracle module only.

    `cli oracle` would also run `full_spectrum`, so the module is called
    directly.  The boxes are fixed; the seed does not enter.  A box is one
    checked operation; the pass is the latency.  The strip and the nested
    box are smaller than in `FullOracleWorkload` (dims 1,952 and 1,089
    instead of 3,872 and 2,401), so that a run repeats the pass.
    """

    configs = ("square_line_defect.json", "chain_point_defect.json",
               "square.json", "bipartite_chain.json", "nested")
    STRIP = ((30, 32), ("open", "periodic"))
    CHAIN_L = 100
    PERIODIC = (("square.json", 24, ref.square_periodic_eigenvalues),
                ("bipartite_chain.json", 64,
                 ref.bipartite_periodic_eigenvalues))
    NESTED_L = 16

    def __init__(self, seed, out_root):
        super().__init__(seed, out_root)
        self.closed_form_checked = False

    def spec(self, name):
        return self.loaded[name][0]

    def unit(self, index, tally):
        box_times = []
        boxes = [self._strip, self._chain, self._nested] + [
            (lambda t, tally, box=box: self._periodic(t, tally, *box))
            for box in self.PERIODIC]
        for box in boxes:
            try:
                tally.op(box(box_times, tally))
            except Exception as exc:    # a crash is a failed box
                tally.op([f"oracle box raised {exc!r}"])
        self.closed_form_checked = True
        tally.sink("pass").append(sum(box_times))

    def _strip(self, times, tally):
        with self.timer(times):
            trunc = oracle.assemble_truncated(
                self.spec("square_line_defect.json"), *self.STRIP)
            eigs = oracle.oracle_eigenvalues(trunc)
        n2 = self.STRIP[0][1]
        worst = max(float(np.min(np.abs(eigs - ref.branch_omega(
            2 * math.pi * m / n2 - math.pi)))) for m in range(n2))
        spill = max(float(eigs[-1]) - (2 + ref.SQRT5), -4.0 - float(eigs[0]),
                    0.0)
        tally.error(max(worst, spill))
        if worst <= POINT_TOL and spill <= POINT_TOL:
            return []
        return [f"strip: branch worst {worst:.3e}, spill {spill:.3e}"]

    def _chain(self, times, tally):
        with self.timer(times):
            trunc = oracle.assemble_truncated(
                self.spec("chain_point_defect.json"), self.CHAIN_L)
            eigs, vecs = oracle.oracle_eigenpairs(trunc)
            mass = oracle.boundary_mass(trunc, vecs)
        err = abs(float(eigs[-1]) - ref.SQRT5)
        spill = max(float(eigs[-2]) - 2.0, -2.0 - float(eigs[0]), 0.0)
        tally.error(max(err, spill))
        if max(err, spill, float(mass[-1])) <= POINT_TOL:
            return []
        return [f"chain L={self.CHAIN_L}: point error {err:.3e}, spill "
                f"{spill:.3e}, boundary mass {float(mass[-1]):.3e}"]

    def _periodic(self, times, tally, name, half_width, closed_form):
        spec = self.spec(name)
        with self.timer(times):
            err = oracle.periodic_box_check(spec, half_width)
        if not self.closed_form_checked:
            # the identity compares with the engine's own bands; the closed
            # form is checked once per run, untimed and untraced
            eigs = np.sort(oracle.oracle_eigenvalues(
                oracle.assemble_truncated(spec, half_width, "periodic")))
            err = max(err, float(np.max(np.abs(eigs
                                               - closed_form(half_width)))))
        tally.error(err)
        if err <= BOX_TOL:
            return []
        return [f"periodic {name} L={half_width}: deviation {err:.3e}"]

    def _nested(self, times, tally):
        with self.timer(times):
            eigs = oracle.oracle_eigenvalues(
                oracle.assemble_truncated(self.spec("nested"), self.NESTED_L))
        err = float(np.min(np.abs(eigs - self.nested_point)))
        tally.error(err)
        if err <= POINT_TOL:
            return []
        return [f"nested L={self.NESTED_L}: point error {err:.3e}"]

    def report(self, tally):
        return {"oracle_s": (_median(tally.latencies), "s")}


class FullOracleWorkload(OracleWorkload):
    """The oracle boxes at the design's sizes; one pass takes 30 to 40 s."""

    STRIP = ((60, 32), ("open", "periodic"))
    NESTED_L = 24


def _median(values):
    return float(np.median(values)) if values else math.nan


def _frac(part, whole):
    return part / whole if whole else 0.0


#: grid sizes of guided-2d: the bundled 64 k nodes and 513 omegas make one
#: spectrum run take 10 to 14 s, too long for a run to repeat it often
#: enough to be steady; halving both keeps the scan-to-polish ratio
GUIDED_GRIDS = {"k_points": 32, "omega_points": 257}


def make(name, seed, out_root):
    """The workload object for a benchmark workload name."""
    if name == "guided-2d":
        return SpectrumWorkload(seed, out_root, "line",
                                "square_line_defect.json", GUIDED_GRIDS)
    if name == "guided-2d-full":
        return SpectrumWorkload(seed, out_root, "line",
                                "square_line_defect.json")
    if name == "nested-2d":
        return SpectrumWorkload(seed, out_root, "nested", "nested")
    if name == "query-mix":
        return QueryWorkload(seed, out_root)
    if name == "oracle-boxes":
        return OracleWorkload(seed, out_root)
    if name == "oracle-boxes-full":
        return FullOracleWorkload(seed, out_root)
    raise KeyError(name)


#: the workloads BENCHMARK.json names, and those only run by hand
WORKLOADS = ("guided-2d", "query-mix", "oracle-boxes")
EXTRA_WORKLOADS = ("nested-2d", "guided-2d-full", "oracle-boxes-full")
