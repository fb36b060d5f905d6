"""Run the CLI of two checkouts on the same inputs and diff every output.

    python tools/compare_cli.py OLD_CHECKOUT NEW_CHECKOUT

Each run is a fresh `python -m defect_bands.cli` process with PYTHONPATH set
to the checkout's `src`.  The runs are `validate`, `bands --k-grid 8 --out`
and `spectrum --out` on the five bundled configs,
`perfbench/nested_line_point.json` and the five `tools/` models,
`membership --json` at each of OMEGAS on the same eleven models,
and `oracle --out`: with `--L 12`, open and periodic, on the five bundled
configs, and with `--L 8`, open and periodic, on the nested model.  Two
`tools/` models, an omega-dependent line defect and a bulk quadratic in
omega, are counted in `dispersion_branch` through its checks of
-dT/domega: the defect's slope and the bulk's, cut at omega = 0.  The
third, `two_band_line_point.json` (`tests_util.two_band_line(point=2.0)`),
has a two-site cell (M = 2) and a line and a point defect, so a level 1
that is not closed-form and a level 2 that doubles n, and a level-1 image
inside the bulk gap.  The fourth, `next_nearest_point.json`, is the chain
2 cos 2k with a unit point defect, whose axis-1 hopping reaches two cells
and whose one point is sqrt5.  The fifth, `shifted_cubic_point.json`, is
the cubic bulk 2 cos(k_1 + 0.3) + 2 cos k_2 + 2 cos k_3 with a point
defect 2 at k_points 8, whose band maximum 6 no node of k_1 reaches: its
band and exclusion edges are +-6 where k_1 is not sampled and about
+-5.9914 where it is.  Both checkouts read these five configs from
this script's directory, so a checkout that predates them runs them too.  For every run the CSVs it wrote
(the bands, the spectrum and one per branch, or the box eigenvalues), its
stdout, its stderr and its exit code are compared byte for byte.  No
subcommand reaches `resolvent_apply`, so one more fresh process per
checkout solves with it at the RESOLVENT omegas, each on a spec of its own,
with the config's grids and a fixed `trig_vector` right-hand side, and
prints per solve the sha256 of the solution's bytes and the repr of its
residual; each solve's line, and that process's stderr and exit code, are
compared too.

A fresh spec starts with an empty store of the tables the engine keeps per
spec, so two more in-process passes per checkout ask queries of one spec
many times: the same process then solves each config's RESOLVENT omegas
again on one spec, forward, then reversed, and one more process asks every
`membership --json` query, each model's spec built once and asked OMEGAS
forward, then reversed.  Most of these answers come from a store that
earlier queries filled.  Each one is compared with the other checkout's
and with the same query's fresh-spec answer of its own checkout (the
fresh-process stdout for membership).

Prints one line per differing output, with the largest absolute difference
of its numbers when a CSV (bands, spectrum, branch or oracle) or a
`membership --json` answer differs in numbers alone, and a summary; exits 0
when every output is identical, 1 otherwise.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

CONFIGS = ["src/defect_bands/configs/bipartite_chain.json",
           "src/defect_bands/configs/chain.json",
           "src/defect_bands/configs/chain_point_defect.json",
           "src/defect_bands/configs/square.json",
           "src/defect_bands/configs/square_line_defect.json",
           "perfbench/nested_line_point.json",
           "tools/square_line_omega_defect.json",
           "tools/squared_frequency_line.json",
           "tools/two_band_line_point.json",
           "tools/next_nearest_point.json",
           "tools/shifted_cubic_point.json"]

OMEGAS = [-5.0, -2.5, 0.3, 2.02, math.sqrt(5.0), 4.1, 5.18,
          5.180756781817904]

#: (box half-width, boundary conditions) of the oracle runs per config; the
#: nested model's box grows fastest, so it runs smaller boxes: open goes
#: through the eigenpairs of the mirror halves, periodic through the Bloch
#: blocks of both axes.
#: The `tools/` models are there for their dispersion and run none
ORACLE_BOXES = {"nested_line_point": [("8", "open"), ("8", "periodic")],
                "square_line_omega_defect": [], "squared_frequency_line": [],
                "two_band_line_point": [], "next_nearest_point": [],
                "shifted_cubic_point": []}
ORACLE_DEFAULT = [("12", "open"), ("12", "periodic")]

#: (config, omegas outside its spectrum) of the `resolvent_apply` solves
RESOLVENT = [("src/defect_bands/configs/chain_point_defect.json", [-3.0, 3.0]),
             ("src/defect_bands/configs/square_line_defect.json", [-5.0, 5.5]),
             ("perfbench/nested_line_point.json", [-5.0, 7.5])]

#: every `resolvent_apply` solve in one process: each (config, omegas) of
#: argv[1:] (a config path, then its omegas as repr strings joined by
#: commas) first on a fresh spec per solve, then on one spec, forward then
#: reversed; per solve one JSON line [output name, its line]
RESOLVENT_SCRIPT = """
import hashlib, json, pathlib, sys
from defect_bands import cli, spectrum

def load(config):
    return cli.spec_from_config(cli.load_config(config))

def solve(spec, grids, omega):
    n, m = spec.lattice_dim, spec.cell_size
    g = spectrum.trig_vector(n, {(0,) * n: [1.0] * m, (1,) * n: [0.5j] * m})
    try:
        sol = spectrum.resolvent_apply(spec, omega, g, grids)
        return (hashlib.sha256(sol.f_tab.tobytes()).hexdigest() + " "
                + repr(sol.residual))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

jobs = [(config, [float(w) for w in omegas.split(",")])
        for config, omegas in zip(sys.argv[1::2], sys.argv[2::2])]
for config, omegas in jobs:
    for omega in omegas:
        name = f"{pathlib.Path(config).stem}/resolvent_{omega!r}"
        print(json.dumps([name, solve(*load(config), omega)]))
for config, omegas in jobs:
    spec, grids = load(config)
    for order, sweep in (("forward", omegas), ("reversed", omegas[::-1])):
        for omega in sweep:
            name = (f"{pathlib.Path(config).stem}/resolvent_{omega!r} "
                    f"in-process {order}")
            print(json.dumps([name, solve(spec, grids, omega)]))
"""

#: the membership queries of every model in one process: one spec per
#: model, OMEGAS (repr strings in argv[1]) forward then reversed; per answer
#: one JSON line [output name, the answer as `membership --json` prints it]
WARM_SCRIPT = """
import json, pathlib, sys
from defect_bands import cli, spectrum
omegas = [float(w) for w in sys.argv[1].split(",")]
for config in sys.argv[2:]:
    spec, grids = cli.spec_from_config(cli.load_config(config))
    for order, sweep in (("forward", omegas), ("reversed", omegas[::-1])):
        for omega in sweep:
            name = (f"{pathlib.Path(config).stem}/membership_{omega!r}/"
                    f"stdout in-process {order}")
            try:
                cert = spectrum.membership(spec, omega, grids)
                text = json.dumps(cert.to_dict(), indent=2, sort_keys=True)
            except Exception as exc:
                text = f"{type(exc).__name__}: {exc}"
            print(json.dumps([name, text + "\\n"]))
"""

#: this script's directory, where both checkouts read the configs under
#: tools/ from
HERE = Path(__file__).resolve().parent

#: CLI processes run at once per checkout
WORKERS = 2


def runs():
    """(config, run name, CLI arguments after the config) of every run."""
    out = []
    for config in CONFIGS:
        model = Path(config).stem
        out.append((config, f"{model}/validate", ["validate"]))
        out.append((config, f"{model}/bands",
                    ["bands", "--k-grid", "8", "--out", "bands.csv"]))
        out.append((config, f"{model}/spectrum",
                    ["spectrum", "--out", "spectrum.csv"]))
        for omega in OMEGAS:
            out.append((config, f"{model}/membership_{omega!r}",
                        ["membership", "--omega", repr(omega), "--json"]))
        for half_width, bc in ORACLE_BOXES.get(model, ORACLE_DEFAULT):
            out.append((config, f"{model}/oracle_L{half_width}_{bc}",
                        ["oracle", "--L", half_width, "--bc", bc,
                         "--out", "oracle.csv"]))
    return out


def config_file(checkout, config):
    """The path a checkout reads a config of CONFIGS from."""
    if config.startswith("tools/"):
        return HERE / Path(config).name
    return checkout / config


def run_one(checkout, workdir, config, name, argv):
    """Run one CLI call in its own directory; {output name: bytes}."""
    where = workdir / name
    where.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "defect_bands.cli", argv[0], "--config",
         str(config_file(checkout, config))] + argv[1:],
        cwd=where, env=env, capture_output=True)
    outputs = {f"{name}/{path.name}": path.read_bytes()
               for path in sorted(where.iterdir())}
    outputs[f"{name}/stdout"] = proc.stdout
    outputs[f"{name}/stderr"] = proc.stderr
    outputs[f"{name}/exit"] = str(proc.returncode).encode()
    return outputs


def run_resolvent(checkout):
    """Every `resolvent_apply` solve in one process, on fresh specs and then
    on one warm spec per config; {output name: bytes}."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [str(arg) for config, omegas in RESOLVENT
            for arg in (checkout / config, ",".join(map(repr, omegas)))]
    proc = subprocess.run([sys.executable, "-c", RESOLVENT_SCRIPT] + argv,
                          env=env, capture_output=True)
    outputs = {}
    for line in proc.stdout.splitlines():
        name, result = json.loads(line)
        outputs[name] = result.encode()
    outputs["resolvent/stderr"] = proc.stderr
    outputs["resolvent/exit"] = str(proc.returncode).encode()
    return outputs


def run_warm(checkout):
    """Every membership query in one process, OMEGAS forward then reversed
    on one spec per model; {output name: bytes}."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", WARM_SCRIPT, ",".join(map(repr, OMEGAS))]
        + [str(config_file(checkout, config)) for config in CONFIGS],
        env=env, capture_output=True)
    outputs = {}
    for line in proc.stdout.splitlines():
        name, text = json.loads(line)
        outputs[name] = text.encode()
    outputs["in-process/stderr"] = proc.stderr
    outputs["in-process/exit"] = str(proc.returncode).encode()
    return outputs


def run_all(checkout, workdir):
    outputs = {}
    with ThreadPoolExecutor(WORKERS) as pool:
        resolvent = pool.submit(run_resolvent, checkout)
        warm = pool.submit(run_warm, checkout)
        for part in pool.map(lambda job: run_one(checkout, workdir, *job),
                             runs()):
            outputs.update(part)
        outputs.update(resolvent.result())
        outputs.update(warm.result())
    return outputs


def warm_mismatches(outputs):
    """In-process answers that differ from their query's fresh-spec answer
    in the same checkout."""
    return [name for name in sorted(outputs) if " in-process " in name
            and outputs[name] != outputs.get(name.split(" in-process ")[0])]


def first_difference(a, b):
    """The first differing line of two outputs, as 'line N: old -> new'."""
    la, lb = a.decode(errors="replace").splitlines(), \
        b.decode(errors="replace").splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x!r} -> {y!r}"
    return f"{len(la)} lines -> {len(lb)} lines"


def numeric_difference(a, b):
    """Largest absolute difference between the numbers of two CSVs, or None
    when their headers, row or field counts, or text fields differ."""
    la, lb = a.decode().splitlines(), b.decode().splitlines()
    if la[:1] != lb[:1] or len(la) != len(lb):
        return None
    gap = 0.0
    for ra, rb in zip(la[1:], lb[1:]):
        fa, fb = ra.split(","), rb.split(",")
        if len(fa) != len(fb):
            return None
        for x, y in zip(fa, fb):
            try:
                gap = max(gap, abs(float(x) - float(y)))
            except ValueError:
                if x != y:
                    return None
    return gap


def json_difference(a, b):
    """Largest absolute difference between the numbers of two JSON texts, or
    None when either is not JSON or they differ in anything but numbers."""
    try:
        return _tree_difference(json.loads(a), json.loads(b))
    except ValueError:
        return None


def _tree_difference(x, y):
    """`json_difference` of two decoded JSON values."""
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (x, y)]
    if all(numbers):
        return abs(x - y)
    if any(numbers) or type(x) is not type(y):
        return None
    if isinstance(x, dict):
        if x.keys() != y.keys():
            return None
        pairs = [(x[key], y[key]) for key in x]
    elif isinstance(x, list):
        if len(x) != len(y):
            return None
        pairs = list(zip(x, y))
    else:
        return 0.0 if x == y else None
    gaps = [_tree_difference(u, v) for u, v in pairs]
    return None if None in gaps else max(gaps, default=0.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="checkout to compare against")
    parser.add_argument("new", type=Path, help="checkout under test")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old = run_all(args.old.resolve(), Path(tmp) / "old")
        new = run_all(args.new.resolve(), Path(tmp) / "new")
    differing = 0
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            differing += 1
            print(f"{key}: only in {'new' if key in new else 'old'}")
        elif old[key] != new[key]:
            differing += 1
            line = f"{key}: differs, {first_difference(old[key], new[key])}"
            gap = None
            if key.endswith(".csv"):
                gap = numeric_difference(old[key], new[key])
            elif "/membership_" in key and "/stdout" in key:
                gap = json_difference(old[key], new[key])
            if gap is not None:
                line += f", largest absolute difference {gap:.3e}"
            print(line)
    stale = 0
    for side, outputs in (("old", old), ("new", new)):
        for name in warm_mismatches(outputs):
            stale += 1
            print(f"{name}: differs from the fresh spec in {side}")
    total = len(set(old) | set(new))
    print(f"{total - differing} of {total} outputs identical")
    print(f"{stale} in-process answers differ from their fresh spec")
    return 1 if differing or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
