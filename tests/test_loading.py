"""Lazy loading: what `import spinrev` and each subcommand load, and the public names.

The module sets are read in fresh interpreters, since this test process
has already imported every submodule.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinrev
from spinrev import complete_weights, dipole_type, scalar_type, scheme_to_dict, synthesize_case1

SRC = str(Path(spinrev.__file__).resolve().parents[1])

# the names the package exported when it imported every submodule eagerly
PUBLIC = {
    "bounds": [
        "BoundsAudit", "BoundsReport", "audit_stats_against_bounds", "bounds_report",
        "check_scheme_against_bounds", "steps_lower_bound", "steps_lower_bound_case2",
        "tau_lower_bound",
    ],
    "coupling": [
        "CouplingClass", "CouplingInput", "classification_margins", "classify_type",
        "complete_weights", "coupling_from_dict", "dipole_type", "scalar_type",
        "tensor_coupling",
    ],
    "hilbert": [
        "ErrorScaling", "build_hamiltonian", "conjugation_consistency", "error_scaling", "evolve",
        "kron_all", "lift_rotations", "operator_norm",
    ],
    "rotations": [
        "SymSpectrum", "axis_cycle", "random_special_unitary", "rotation_about", "so3_to_su2",
        "su2_to_so3", "sym_eig",
    ],
    "schemes": [
        "Scheme", "SchemeKind", "SchemeStats", "Step", "VerifyResult", "average_coupling",
        "conjugate", "decoupling_to_inversion", "hadamard_matrix",
        "inversion_to_decoupling", "pi_rotation", "scheme_from_dict", "scheme_stats",
        "scheme_to_dict", "selective_decoupling", "synthesize_case1", "synthesize_case2", "verify",
    ],
    "search": [
        "CandidatePool", "SearchResult", "collective_cyclic_pool",
        "find_inversion_nnls", "greedy_pool_growth", "merge_pools", "octahedral_group",
        "pair_pi_pool", "random_octahedral_pool", "search_result_to_dict",
    ],
}
PUBLIC_NAMES = sorted(name for names in PUBLIC.values() for name in names)

BASE = {"spinrev", "spinrev.cli"}
CORE = BASE | {"numpy", "spinrev.coupling", "spinrev.rotations"}


def loaded_after(body, *argv):
    """Run `body` in a fresh interpreter; return (result, the numpy, numpy.random
    and spinrev modules it loaded)."""
    probe = (
        "import sys\n"
        "try:\n"
        f"    {body}\n"
        "finally:\n"
        "    print('loaded:', *sorted(m for m in sys.modules if m in ('numpy', 'numpy.random') or m.startswith('spinrev')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    marker = result.stdout.splitlines()[-1].split()
    assert marker[0] == "loaded:"
    return result, set(marker[1:])


CLI = "from spinrev.cli import main; sys.exit(main(sys.argv[1:]))"
RUN = "from spinrev.cli import run; run()"


@pytest.mark.parametrize(
    "body, argv, code",
    [
        ("import spinrev, spinrev.cli", [], 0),
        (CLI, ["--help"], 0),
        (CLI, ["bounds", "--no-such-flag"], 2),
        (RUN, ["--help"], 0),
        (RUN, ["bounds", "--no-such-flag"], 2),
    ],
    ids=["import", "help", "bad-flag", "run-help", "run-bad-flag"],
)
def test_package_and_cli_load_nothing_heavy(body, argv, code):
    result, loaded = loaded_after(body, *argv)
    assert result.returncode == code
    assert loaded == BASE


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("loading")

    def write(name, obj):
        path = tmp / name
        path.write_text(json.dumps(obj))
        return str(path)

    W = complete_weights(2)
    dipole = write("dipole.json", {"n": 2, "W": W.tolist(), "A": dipole_type().tolist()})
    scalar = write("scalar.json", {"n": 2, "W": W.tolist(), "A": scalar_type().tolist()})
    scheme = write("scheme.json", scheme_to_dict(synthesize_case1(W, dipole_type())))
    return {"dipole": dipole, "scalar": scalar, "scheme": scheme, "out": str(tmp / "out.json")}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["classify", "--coupling", "{dipole}"], set()),
        (["synthesize", "--coupling", "{dipole}", "--out", "{out}"], {"spinrev.schemes"}),
        (["verify", "--coupling", "{dipole}", "--scheme", "{scheme}"], {"spinrev.schemes"}),
        (["bounds", "--coupling", "{dipole}"], {"spinrev.bounds"}),
        (
            ["search", "--coupling", "{scalar}", "--out", "{out}"],
            # only search draws random numbers: numpy.random costs a job ~11 ms and 6 MB
            {"spinrev.schemes", "spinrev.search", "spinrev.bounds", "numpy.random"},
        ),
        (
            ["simulate", "--coupling", "{dipole}", "--scheme", "{scheme}"],
            {"spinrev.schemes", "spinrev.hilbert"},
        ),
    ],
    ids=["classify", "synthesize", "verify", "bounds", "search", "simulate"],
)
def test_each_subcommand_loads_only_what_it_runs(inputs, argv, extra):
    result, loaded = loaded_after(CLI, *(arg.format(**inputs) for arg in argv))
    assert result.returncode == 0, result.stderr
    assert loaded == CORE | extra


@pytest.mark.parametrize("access", ["spinrev.tau_lower_bound", "spinrev.bounds.tau_lower_bound"])
def test_first_access_loads_only_the_owning_module(access):
    result, loaded = loaded_after(f"import spinrev; {access}")
    assert result.returncode == 0, result.stderr
    assert loaded == CORE - {"spinrev.cli"} | {"spinrev.bounds"}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_a_submodule_read_before_its_import_is_imported_by_the_hook(monkeypatch, module):
    # an import binds the submodule on the package; without that binding
    # the attribute read goes to the package's __getattr__
    owner = importlib.import_module(f"spinrev.{module}")
    monkeypatch.delattr(spinrev, module)
    assert getattr(spinrev, module) is owner


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_the_submodule_objects(module):
    owner = __import__(f"spinrev.{module}", fromlist=["_"])
    for name in PUBLIC[module]:
        assert getattr(spinrev, name) is getattr(owner, name), name


def test_dir_and_star_import_expose_the_public_names():
    assert set(PUBLIC_NAMES) <= set(dir(spinrev))
    assert sorted(spinrev.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from spinrev import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(spinrev, name)
    assert "__version__" in dir(spinrev)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        spinrev.no_such_name
    assert not hasattr(spinrev, "no_such_name")
