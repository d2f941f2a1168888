"""`validation`'s symbol checks: their tolerances follow the roundoff that
the inertia symbol A amplifies, so they pass on roundoff alone at high
orders, and still fail for a multiplier that is not symmetric or not
translation-equivariant. Where that roundoff could hide a fault of one
part in a million, a check gives no verdict, and fails."""
import numpy as np
import pytest

from densgeo import spectral as sp, validation as va

SYMMETRY = "inertia-self-adjoint-positive"
EQUIVARIANCE = "multiplier-translation-equivariance"

# orders 3, 5 and 8, a high order at which the symmetry check still
# resolves, and the largest order each grid's table takes
GRIDS = [(1, 32, (3, 5, 8, 18, 126)), (2, 16, (3, 5, 8, 16, 145))]
# each check's fault, and the highest order among those above at which it
# resolves one on both grids, seeds 0-2
CASES = [("asymmetric", SYMMETRY, 18), ("shift-variant", EQUIVARIANCE, 5)]


def run_check(name, dim, n, k, seed, monkeypatch):
    monkeypatch.setattr(va, "CHECKS", [c for c in va.CHECKS if c[0] == name])
    return va.run_suite(dim, n, k, seed)["checks"][name]


@pytest.mark.parametrize("dim,n,k", [(1, 32, 3), (2, 16, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symbol_checks_pass_on_roundoff(dim, n, k, seed):
    checks = va.run_suite(dim, n, k, seed)["checks"]
    for name in (SYMMETRY, EQUIVARIANCE):
        assert checks[name]["passed"], (name, checks[name])


@pytest.mark.parametrize("dim,n,orders", GRIDS)
@pytest.mark.parametrize("name,resolved_to", [case[1:] for case in CASES])
def test_no_verdict_where_roundoff_could_hide_a_fault(
        dim, n, orders, name, resolved_to, monkeypatch):
    with pytest.raises(ValueError, match="overflows"):
        sp.Operators(sp.make_grid(dim, n), orders[-1] + 1)
    for k in orders:
        for seed in range(3):
            result = run_check(name, dim, n, k, seed, monkeypatch)
            if k <= resolved_to:
                assert result["passed"], (k, seed, result)
            else:
                assert not result["passed"] and "unresolved" in result, (
                    k, seed, result)


@pytest.mark.parametrize("dim,n,orders", GRIDS)
@pytest.mark.parametrize("fault,name,resolved_to", CASES)
def test_a_faulty_multiplier_fails(dim, n, orders, fault, name, resolved_to,
                                   monkeypatch):
    apply = sp.Operators.apply

    def faulty(ops, symbol, values):
        out = apply(ops, symbol, values)
        if fault == "asymmetric":  # plus 1e-6 of its shift by one cell
            return out + 1e-6 * np.roll(out, 1, axis=-1)
        return out * (1.0 + 1e-6 * np.cos(ops.grid.coords[0]))

    monkeypatch.setattr(sp.Operators, "apply", faulty)
    for k in orders:
        for seed in range(3):
            result = run_check(name, dim, n, k, seed, monkeypatch)
            # measured above its tolerance where the check resolves the
            # fault, and no verdict above
            assert not result["passed"], (k, seed, result)
            assert ("unresolved" in result) == (k > resolved_to), (
                k, seed, result)
