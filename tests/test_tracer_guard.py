"""The benchmark's tracer patches engine functions by name; this keeps a
rename or deletion of any of them from passing unnoticed."""

from pathlib import Path

from defect_bands import cli, model, oracle, spectrum, symbol

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: every (owner, attribute) that `Tracer.install` wraps
TRACED = [
    (spectrum, "inverse"), (spectrum, "smallest_singular_value"),
    (spectrum, "det"), (symbol.OmegaSymbol, "eval"),
    (spectrum.Chain, "__init__"), (spectrum.Chain, "level_values"),
    (spectrum, "step_check"), (spectrum, "membership"),
    (spectrum, "exclusion_set"), (spectrum, "bands_grid"),
    (spectrum, "dispersion_branch"), (spectrum, "resolvent_apply"),
    (cli, "full_spectrum"), (model, "validate"), (cli, "validate"),
    (cli, "load_config"), (cli, "spec_from_config"), (cli, "main"),
    (oracle, "assemble_truncated"), (oracle, "oracle_eigenvalues"),
    (oracle, "oracle_eigenpairs"), (oracle, "boundary_mass"),
    (oracle, "periodic_box_check"),
]


def _current(owner, attr):
    return vars(owner).get(attr)


def test_install_patches_every_traced_function_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    originals = {(owner, attr): _current(owner, attr) for owner, attr in TRACED}
    assert None not in originals.values()
    tracer = Tracer()
    tracer.install()
    try:
        assert [(owner, attr) for owner, attr, _ in tracer._patches] == TRACED
        for (owner, attr), original in originals.items():
            assert _current(owner, attr) is not original
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert _current(owner, attr) is original
