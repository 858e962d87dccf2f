"""The catalog builds its maps as columns; these tests put every one back
through the validating constructor, which checks homogeneity and degrees."""

import pytest

from frobamp import catalog
from frobamp.modules import GradedMap


def _maps_and_homs(p, n):
    """Every presentation, Koszul differential and sequence map of the
    catalog on P^n over F_p, and the homs of its sequences."""
    mods = [catalog.structure_sheaf(p, n), catalog.line_bundle(p, n, 2),
            catalog.line_bundle_sum(p, n, [1, -1, 0]),
            catalog.irrelevant_ideal(p, n), catalog.tangent_bundle(p, n)]
    mods += [catalog.form_bundle(p, n, j) for j in range(n + 1)]
    seqs = [catalog.euler_sequence(p, n), catalog.form_sequence(p, n),
            catalog.split_sequence(catalog.tangent_bundle(p, n),
                                   catalog.form_bundle(p, n, 1))]
    if n == 2:
        mods.append(catalog.point_ideal(p))
        seqs.append(catalog.point_koszul_sequence(p))
    homs = [h for seq in seqs for h in seq]
    maps = [m.presentation for m in mods]
    maps += [catalog.koszul_map(p, n, k) for k in range(1, n + 2)]
    maps += [h.matrix for h in homs]
    return maps, homs


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_catalog_maps_pass_the_validating_constructor(p, n):
    maps, homs = _maps_and_homs(p, n)
    for gm in maps:
        assert GradedMap(p, n + 1, gm.target_twists, gm.source_twists,
                         gm.entries) == gm
    for h in homs:
        assert h.is_well_defined()
