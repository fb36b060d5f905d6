"""Command-line front end.

    defect-bands <validate|bands|membership|spectrum|oracle> --config PATH
                 [--omega F] [--L INT] [--bc periodic|open] [--k-points INT]
                 [--k-grid INT | --k-path SPEC] [--out PATH] [--json]

Exit codes: 0 ok, 1 domain violation, 2 I/O or parse error, 3 inconclusive
verdict.  Set DEFECT_BANDS_LOG to error|warn|info|debug for diagnostics.

Problem files are strict JSON (unknown keys rejected); matrices enter as
separate `re`/`im` arrays.  Numeric output is CSV with shortest round-trip
float formatting, and all reductions run in a fixed order, so identical
inputs give byte-identical files.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import oracle as oracle_mod
from .model import (
    DefectLayer,
    GridConfig,
    InvalidSpec,
    ProblemSpec,
    ToleranceSet,
    validate,
)
from .quadrature import _product_nodes
from .spectrum import bands_grid, full_spectrum, membership
from .symbol import InputError, OmegaSymbol, TrigMatrixPolynomial

logger = logging.getLogger("defect_bands.cli")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_INCONCLUSIVE = 3


class ConfigError(ValueError):
    """Problem file violates the document schema."""


class FileAccessError(Exception):
    """A problem file that cannot be read or an output that cannot be
    written; the message names the path."""


def _fmt(x):
    """Shortest round-trip float text; normalizes -0.0."""
    return repr(float(x) + 0.0)


def _require_keys(doc, required, optional, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _array(value, where):
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected an array")
    return value


def _number(value, where, integer=False):
    """A config number as float (or int), ConfigError when it is none."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not integer:
        return number
    if not number.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(number)


def _matrix_from(entry, m_sz, where):
    try:
        re_part = np.asarray(entry["re"], dtype=float)
        im_part = np.asarray(entry.get("im", np.zeros_like(re_part)), dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: matrix entries must be numbers") from None
    if re_part.shape != (m_sz, m_sz) or im_part.shape != (m_sz, m_sz):
        raise ConfigError(f"{where}: matrices must be {m_sz}x{m_sz}")
    return re_part + 1j * im_part


def _poly_from_powers(powers, offset_len, m_sz, where):
    terms = {}
    for p_entry in _array(powers, f"{where}, omega_powers"):
        _require_keys(p_entry, ("power", "coefficients"), (), where)
        power = _number(p_entry["power"], f"{where}, power", integer=True)
        coeffs = {}
        coefficients = _array(p_entry["coefficients"],
                              f"{where}, power {power}, coefficients")
        for c_idx, c_entry in enumerate(coefficients):
            tag = f"{where}, power {power}, coefficient {c_idx}"
            _require_keys(c_entry, ("offset", "re"), ("im",), tag)
            off = tuple(_number(x, f"{tag}, offset", integer=True)
                        for x in _array(c_entry["offset"], f"{tag}, offset"))
            if len(off) != offset_len:
                raise ConfigError(f"{tag}: offset length {len(off)}, "
                                  f"expected {offset_len}")
            if off in coeffs:
                raise ConfigError(f"{tag}: duplicate offset {off}")
            coeffs[off] = _matrix_from(c_entry, m_sz, tag)
        if power in terms:
            raise ConfigError(f"{where}: duplicate power {power}")
        terms[power] = coeffs
    if not terms:
        raise ConfigError(f"{where}: at least one omega power required")
    return terms


def load_config(path):
    """Parse and schema-check a problem file; returns the raw document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")
    _require_keys(doc, ("dimension", "cell_size", "bulk"),
                  ("defects", "tolerances", "omega_window", "grids"),
                  "document")
    return doc


def spec_from_config(doc):
    """Build (ProblemSpec, GridConfig) from a parsed problem document.

    Raises `ConfigError` where the document is malformed and `InvalidSpec`,
    listing the violations of the spec and of the grids together, where it
    describes an invalid problem.
    """
    n_dim = _number(doc["dimension"], "dimension", integer=True)
    m_sz = _number(doc["cell_size"], "cell_size", integer=True)
    _require_keys(doc["bulk"], ("omega_powers",), (), "bulk")
    bulk_terms = _poly_from_powers(doc["bulk"]["omega_powers"], n_dim, m_sz,
                                   "bulk")
    bulk = OmegaSymbol({p: TrigMatrixPolynomial(n_dim, coeffs)
                        for p, coeffs in bulk_terms.items()})

    defects = []
    defect_docs = _array(doc.get("defects", []), "defects")
    for d_idx, d_entry in enumerate(defect_docs):
        where = f"defect {d_idx}"
        _require_keys(d_entry, ("codim", "omega_powers"), (), where)
        codim = _number(d_entry["codim"], f"{where}, codim", integer=True)
        if not 1 <= codim <= n_dim:
            raise ConfigError(f"{where}: codim {codim} outside 1..{n_dim}")
        terms = _poly_from_powers(d_entry["omega_powers"], n_dim - codim,
                                  m_sz, where)
        stencils = {p: TrigMatrixPolynomial(n_dim - codim, coeffs)
                    for p, coeffs in terms.items()}
        defects.append(DefectLayer(codim, n_dim, stencils))

    tol_doc = doc.get("tolerances", {})
    _require_keys(tol_doc, (), ("det_zero_tol", "quad_rel_tol", "band_guard",
                                "root_tol_omega", "k_grid_base"), "tolerances")
    tolerances = ToleranceSet(**tol_doc)

    window_doc = doc.get("omega_window", {"min": -10.0, "max": 10.0})
    _require_keys(window_doc, ("min", "max"), (), "omega_window")
    window = tuple(_number(window_doc[key], f"omega_window {key}")
                   for key in ("min", "max"))

    grids_doc = doc.get("grids", {})
    _require_keys(grids_doc, (), ("k_points", "omega_points"), "grids")
    grid_sizes = {key: _number(value, f"grids {key}", integer=True)
                  for key, value in grids_doc.items()}

    violations = []

    def built(cls, **kwargs):
        try:
            return cls(**kwargs)
        except InvalidSpec as exc:
            violations.extend(exc.violations)

    spec = built(ProblemSpec, lattice_dim=n_dim, cell_size=m_sz, bulk=bulk,
                 defects=tuple(defects), tolerances=tolerances,
                 omega_window=window)
    if spec is not None:
        grid_sizes.setdefault("k_points", spec.tolerances.k_grid_base)
    grids = built(GridConfig, **grid_sizes)
    if violations:
        raise InvalidSpec(violations)
    return spec, grids


def _load_spec(args):
    try:
        doc = load_config(args.config)
    except (OSError, UnicodeDecodeError):
        raise FileAccessError(f"cannot read {args.config}") from None
    return spec_from_config(doc)


def _write_text(path, text):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError:
        raise FileAccessError(f"cannot write {path}") from None


def _k_rows_for_bands(args, spec, grids):
    n_dim = spec.lattice_dim
    for flag, value in (("--k-grid", args.k_grid), ("--k-points", args.k_points)):
        if value is not None and value < 1:
            raise InputError(f"{flag} must be >= 1, got {value}")
    if args.k_path:
        vertices = []
        for chunk in args.k_path.split(":"):
            try:
                parts = [float(x) for x in chunk.split(",")]
            except ValueError:
                raise ConfigError(
                    f"--k-path vertex {chunk!r} must be numbers") from None
            if len(parts) != n_dim:
                raise ConfigError(
                    f"--k-path vertex {chunk!r} needs {n_dim} components")
            if not np.all(np.isfinite(parts)):
                raise InputError(f"--k-path vertex {chunk!r} must be finite")
            vertices.append(parts)
        vertices = np.asarray(vertices)
        if len(vertices) == 1:
            return vertices
        pts = max(2, args.k_points or grids.k_points)
        segs = []
        for a, b in zip(vertices[:-1], vertices[1:]):
            frac = np.linspace(0.0, 1.0, pts)[:, None]
            segs.append(a + frac * (b - a))
        rows = np.vstack(segs)
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = np.any(np.abs(np.diff(rows, axis=0)) > 0, axis=1)
        return rows[keep]
    n = args.k_grid or args.k_points or grids.k_points
    return _product_nodes(-np.pi + 2.0 * np.pi * np.arange(n) / n, n_dim)


def cmd_validate(args):
    try:
        spec, _ = _load_spec(args)
    except InvalidSpec as exc:
        for violation in exc.violations:
            print(f"violation: {violation}")
        return EXIT_DOMAIN
    print("valid problem: no violations")
    for tag, entry in sorted(validate(spec).info.items()):
        print(f"  {tag}: {entry}")
    return EXIT_OK


def cmd_bands(args):
    spec, grids = _load_spec(args)
    rows = _k_rows_for_bands(args, spec, grids)
    lines = [",".join([f"k_{i + 1}" for i in range(spec.lattice_dim)]
                      + ["band_index", "omega"])]
    for row, vals in zip(rows, bands_grid(spec, rows)):
        for b_idx, omega in enumerate(vals):
            lines.append(",".join([_fmt(x) for x in row]
                                  + [str(b_idx), _fmt(omega)]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_membership(args):
    spec, grids = _load_spec(args)
    if args.omega is None:
        raise ConfigError("membership requires --omega")
    cert = membership(spec, args.omega, grids)
    if args.json:
        print(json.dumps(cert.to_dict(), indent=2, sort_keys=True))
    else:
        if cert.status == "in":
            print(f"IN (step {cert.detected_at_step})")
            print(f"  witness k: {tuple(float(x) for x in cert.witness_k)}")
        elif cert.status == "out":
            print("OUT")
        else:
            print(f"INCONCLUSIVE: {cert.reason}")
        for level, sigma in cert.min_sigma_per_level:
            print(f"  level {level}: min sigma {_fmt(sigma)}")
    return {"in": EXIT_OK, "out": EXIT_OK,
            "inconclusive": EXIT_INCONCLUSIVE}[cert.status]


def cmd_spectrum(args):
    spec, grids = _load_spec(args)
    result = full_spectrum(spec, grids, n_probes=args.probes)
    lines = ["kind,codim,omega_lo,omega_hi"]
    for comp in result.components:
        lines.append(",".join([comp.kind, str(comp.codim),
                               _fmt(comp.lo), _fmt(comp.hi)]))
    _write_text(args.out, "\n".join(lines) + "\n")
    base = args.out.rsplit(".", 1)[0] if args.out else None
    for codim, branch in sorted(result.branches.items()):
        tail = [f"k_{i + 1}" for i in range(codim, spec.lattice_dim)]
        blines = [",".join(tail + ["omega"])]
        for k_tail, omega, annot in branch.samples:
            blines.append(",".join([_fmt(x) for x in k_tail] + [_fmt(omega)]))
        if base:
            _write_text(f"{base}_branch_codim{codim}.csv",
                        "\n".join(blines) + "\n")
        else:
            print(f"# branch codim {codim}")
            print("\n".join(blines))
    report = result.probe_report
    print(f"probes: {report['n_probes']}, "
          f"disagreements: {len(report['disagreements'])}, "
          f"inconclusive: {len(report['inconclusive'])}")
    if report["disagreements"]:
        for entry in report["disagreements"]:
            print(f"  disagreement: {entry}")
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_oracle(args):
    spec, grids = _load_spec(args)
    if not 0 <= args.tol < np.inf:
        raise InputError(f"--tol must be finite and >= 0, got {args.tol}")
    half_width = args.L if args.L is not None else 20
    trunc = oracle_mod.assemble_truncated(spec, half_width, bc=args.bc)
    if not spec.defects and args.bc == "periodic":
        eigs, deviation = oracle_mod._box_identity(trunc)
    elif spec.defects and "open" in trunc.bcs:
        eigs, vecs = oracle_mod.oracle_eigenpairs(trunc)
        fractions = oracle_mod.boundary_mass(trunc, vecs)
    else:
        eigs = oracle_mod.oracle_eigenvalues(trunc)
        fractions = None
    lines = ["index,eigenvalue"]
    for idx, val in enumerate(eigs):
        lines.append(f"{idx},{_fmt(val)}")
    _write_text(args.out, "\n".join(lines) + "\n")

    if not spec.defects and args.bc == "periodic":
        print(f"periodic box identity: max deviation {_fmt(deviation)}")
        return EXIT_OK
    result = full_spectrum(spec, grids, n_probes=0)
    report = oracle_mod.compare_spectra(result, eigs,
                                        tol=args.tol,
                                        boundary_fraction=fractions)
    print(f"comparison ok: {report['ok']}")
    print(f"  unmatched eigenvalues: {len(report['unmatched_eigenvalues'])}")
    print(f"  edge-flagged: {len(report['edge_flagged'])}")
    for match in report["isolated_point_matches"]:
        print(f"  isolated point {_fmt(match['point'])} matched, "
              f"gap {_fmt(match['gap'])}")
    for failure in report["isolated_point_failures"]:
        print(f"  UNMATCHED isolated point {_fmt(failure['point'])}, nearest "
              f"eigenvalue {_fmt(failure['nearest_eigenvalue'])}")
    return EXIT_OK if report["ok"] else EXIT_DOMAIN


def build_parser():
    parser = argparse.ArgumentParser(
        prog="defect-bands",
        description="Spectra of periodic lattice operators with defects of "
                    "smaller dimension.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="problem JSON file")

    p_val = sub.add_parser("validate", help="check a problem file")
    common(p_val)

    p_bands = sub.add_parser("bands", help="bulk dispersion CSV")
    common(p_bands)
    p_bands.add_argument("--k-grid", type=int, default=None,
                         help="uniform grid points per axis")
    p_bands.add_argument("--k-path", type=str, default=None,
                         help="colon-separated vertices, comma-separated "
                              "components; linearly interpolated")
    p_bands.add_argument("--k-points", type=int, default=None)
    p_bands.add_argument("--out", type=str, default=None)

    p_mem = sub.add_parser("membership", help="test one frequency")
    common(p_mem)
    p_mem.add_argument("--omega", type=float, default=None)
    p_mem.add_argument("--json", action="store_true")

    p_spec = sub.add_parser("spectrum", help="assembled spectrum CSV")
    common(p_spec)
    p_spec.add_argument("--out", type=str, default=None)
    p_spec.add_argument("--probes", type=int, default=32,
                        help="membership cross-check probe count")

    p_orc = sub.add_parser("oracle", help="truncated-box eigenvalues")
    common(p_orc)
    p_orc.add_argument("--L", type=int, default=None, help="box half-width")
    p_orc.add_argument("--bc", choices=("periodic", "open"), default="open")
    p_orc.add_argument("--out", type=str, default=None)
    p_orc.add_argument("--tol", type=float, default=1e-6,
                       help="eigenvalue-vs-spectrum match tolerance")
    return parser


def main(argv=None):
    level_name = os.environ.get("DEFECT_BANDS_LOG", "warn").lower()
    level = {"error": logging.ERROR, "warn": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG}.get(
                 level_name, logging.WARNING)
    logging.basicConfig(level=level)

    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"validate": cmd_validate, "bands": cmd_bands,
                "membership": cmd_membership, "spectrum": cmd_spectrum,
                "oracle": cmd_oracle}
    try:
        return handlers[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc.msg} at line {exc.lineno} column {exc.colno}",
              file=sys.stderr)
        return EXIT_PARSE
    except FileAccessError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InputError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
