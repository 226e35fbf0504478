"""What evaluation imports: no scipy module at all."""
import json
import subprocess
import sys
from pathlib import Path

import scipy.constants

import casimir_spheres.geometry

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _scipy_modules(code):
    """The scipy modules in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    probe = (f"import sys; sys.path.insert(0, {SRC!r}); {code}; import json; "
             "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=300)
    return set(json.loads(proc.stdout))


def test_evaluation_loads_no_scipy_stats_or_constants_of_its_own():
    loaded = _scipy_modules(
        "import casimir_spheres, casimir_spheres.cli; "
        "from casimir_spheres import f_ded_total, f_dvd_total, from_invariants, refit; "
        "from casimir_spheres.rational import default_fit_grid; "
        "red = from_invariants(1.5, 0.1); f_ded_total(red); f_dvd_total(red); "
        "refit('dvd', 0.1, grid=default_fit_grid(20))")
    # scipy.stats, the costliest scipy import, is read only by the r = 2 plane-wave oracle
    assert not {m for m in loaded if m.split(".")[:2] == ["scipy", "stats"]}
    # refit fits by its own Levenberg-Marquardt, so nothing else loads scipy either
    assert loaded == set()


def test_boltzmann_is_the_exact_si_value():
    assert casimir_spheres.geometry.Boltzmann == scipy.constants.Boltzmann

