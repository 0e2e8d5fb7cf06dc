import json

import numpy as np
import pytest

from prodenv.errors import (DeconvolutionFailure, IdentificationFailure,
                            InsufficientData, ValidationError)
from prodenv.identify import (AtomSet, BucketingConfig, IdentifyConfig,
                              NoiseCdf, ProfitTable, _cannot_fit, deconvolve_atoms,
                              estimate_noise_cdf, find_separated_cell,
                              identify_profits, rank_and_assign)
from prodenv.simulate import MarketConfig, TechnologySpec, generate_dataset, profit_oracle

from conftest import nested_diewert, unit_rays_2d


def synthetic_cells(values_by_cell):
    """Minimal cell dict from {key: sorted sample} for unit tests."""
    from prodenv.identify import Cell, CellKey
    cells = {}
    for i, vals in enumerate(values_by_cell):
        key = CellKey((), (i,))
        cells[key] = Cell(key=key, values=np.sort(np.asarray(vals, float)),
                          y_center=np.array([]), x_center=np.array([float(i)]),
                          diameter=0.0)
    return cells


def draw_mixture(rng, atoms, weights, n, half_width):
    comp = rng.choice(len(atoms), size=n, p=weights)
    return np.asarray(atoms)[comp] + rng.uniform(-half_width, half_width, size=n)


def _cell_columns(case, rng):
    """(y_restricted, x) of one build_cells test design."""
    if case == "eight_columns":
        base = np.column_stack([rng.permutation(300) * 0.01 + j for j in range(8)])
        cols = base[rng.permutation(np.repeat(np.arange(300), 10))]
        return cols[:, :6], cols[:, 6:]
    n, lattice = 2000, np.array([0.5, 1.0, 1.25, 2.0])
    if case == "restricted":
        # Lattice values jittered below the 1e-9 rounding, and a column of
        # 151 distinct values.
        y = np.column_stack([rng.choice(lattice, n) + rng.uniform(-1e-11, 1e-11, n),
                             np.round(rng.uniform(0.5, 2.0, n), 2)])
        return y, rng.choice(lattice, (n, 2))
    return np.empty((n, 0)), np.column_stack([np.full(n, 1.5), rng.choice(lattice, n)])


class TestBuildCells:
    @pytest.mark.parametrize("mode", ["unique", "quantile"])
    @pytest.mark.parametrize("case", ["eight_columns", "restricted", "single_valued_x"])
    def test_cells_match_row_grouping(self, case, mode):
        # Cells, their keys, order and contents equal a per-row grouping by
        # each column's bucket ids.  In "eight_columns" every column has 300
        # distinct values: the unique-mode label space of 300**8 passes 2**62,
        # so build_cells must re-rank its label before the last column.
        from prodenv.identify import CellKey, build_cells
        from prodenv.simulate import Dataset
        rng = np.random.default_rng(11)
        y, x = _cell_columns(case, rng)
        cols, k = np.hstack([y, x]), y.shape[1]
        n = len(cols)
        data = Dataset(market_id=np.arange(n), y_restricted=y, x=x,
                       is_price=np.ones(x.shape[1], bool),
                       noisy_profit=rng.permutation(n) * 1.0,
                       type_e=np.ones(n, int), noise_width=0.0)
        cells = build_cells(data, BucketingConfig(mode=mode))
        q = np.linspace(0, 1, 11)[1:-1]
        ids = np.column_stack([
            np.unique(np.round(col, 9), return_inverse=True)[1] if mode == "unique"
            else np.searchsorted(np.quantile(col, q), col, side="right") for col in cols.T])
        groups: dict = {}
        for i, row in enumerate(ids.tolist()):
            groups.setdefault(tuple(row), []).append(i)
        if case == "eight_columns" and mode == "unique":
            assert len(groups) == 300
        assert len(cells) == len(groups)
        for cell, key in zip(cells.values(), sorted(groups)):
            idx, sub = groups[key], cols[groups[key]]
            assert cell.key == CellKey(key[:k], key[k:])
            assert np.array_equal(cell.values, np.sort(data.noisy_profit[idx]))
            assert np.array_equal(cell.y_center, sub[:, :k].mean(axis=0))
            assert np.array_equal(cell.x_center, sub[:, k:].mean(axis=0))
            assert cell.diameter == np.max(sub.max(axis=0) - sub.min(axis=0))
        if case == "restricted":
            assert max(cell.diameter for cell in cells.values()) > 0.0


class TestFindSeparatedCell:
    def test_three_isolated_clusters(self, rng):
        vals = draw_mixture(rng, [1.0, 5.0, 9.0], [1 / 3] * 3, 3000, 0.1)
        anchor = find_separated_cell(synthetic_cells([vals]), noise_width=0.2)
        a, b = anchor.interval
        assert b - a >= 0.2
        # Top cluster preferred on ties; offset counts clusters above.
        assert anchor.e_star_offset in (0, 1, 2)
        sel = vals[(vals >= a) & (vals <= b)]
        spread = sel.max() - sel.min()
        assert spread <= 0.2 + 1e-12

    def test_zero_noise_degenerates_to_atom(self):
        cells = synthetic_cells([[2.0] * 50 + [3.0] * 50])
        anchor = find_separated_cell(cells, noise_width=0.0)
        a, b = anchor.interval
        assert a == pytest.approx(b)

    def test_overlapping_everywhere_fails(self, rng):
        # Gaps 0.15 < K = 0.4: merged blobs are wider than the noise support.
        vals = draw_mixture(rng, [1.0, 1.15, 1.3], [1 / 3] * 3, 6000, 0.2)
        with pytest.raises(IdentificationFailure):
            find_separated_cell(synthetic_cells([vals]), noise_width=0.4)

    def test_prefers_extreme_scale_cells(self, rng):
        near = draw_mixture(rng, [1.0, 1.3], [0.5, 0.5], 2000, 0.1)
        far = draw_mixture(rng, [5.0, 9.0], [0.5, 0.5], 2000, 0.1)
        anchor = find_separated_cell(synthetic_cells([near, far]), noise_width=0.2)
        assert anchor.cell_key.x_bucket == (1,)


class TestNoiseCdf:
    def test_uniform_noise_dkw(self, rng):
        n = 100_000
        vals = 4.0 + rng.uniform(-0.1, 0.1, size=n)
        cells = synthetic_cells([vals])
        anchor = find_separated_cell(cells, noise_width=0.2)
        cdf, value = estimate_noise_cdf(list(cells.values())[0], anchor)
        assert value == pytest.approx(4.0, abs=3 * 0.1 / np.sqrt(n) * 3)
        t = np.linspace(-0.1, 0.1, 201)
        truth = np.clip((t + 0.1) / 0.2, 0, 1)
        assert np.max(np.abs(cdf.evaluate(t) - truth)) <= 0.01

    def test_zero_noise_step(self):
        cells = synthetic_cells([[2.5] * 300])
        anchor = find_separated_cell(cells, noise_width=0.0)
        cdf, value = estimate_noise_cdf(list(cells.values())[0], anchor)
        assert value == pytest.approx(2.5)
        assert cdf.evaluate(-1e-6) == 0.0
        assert cdf.evaluate(1e-6) == 1.0

    def test_insufficient_data(self):
        cells = synthetic_cells([[1.0] * 50])
        anchor = find_separated_cell(cells, noise_width=0.0)
        with pytest.raises(InsufficientData):
            estimate_noise_cdf(list(cells.values())[0], anchor, min_count=200)


class TestDeconvolveAtoms:
    def test_zero_noise_exact(self):
        noise = NoiseCdf.from_residuals(np.zeros(500))
        sample = np.repeat([1.0, 2.0, 3.0], 300)
        atoms = deconvolve_atoms(sample, noise, max_types=5)
        assert len(atoms) == 3
        assert np.allclose(atoms.atoms, [1, 2, 3], atol=1e-9)
        assert np.allclose(atoms.weights, [1 / 3] * 3, atol=1e-9)

    def test_uniform_noise_two_atoms(self, rng):
        noise = NoiseCdf.from_residuals(rng.uniform(-0.1, 0.1, size=50_000))
        sample = draw_mixture(rng, [1.0, 2.0], [0.45, 0.55], 100_000, 0.1)
        atoms = deconvolve_atoms(sample, noise, max_types=4)
        assert len(atoms) == 2
        assert np.allclose(atoms.atoms, [1.0, 2.0], atol=0.01)
        assert np.allclose(atoms.weights, [0.45, 0.55], atol=0.02)
        assert atoms.mgf_ok

    def test_single_atom_mean_recovery(self, rng):
        noise = NoiseCdf.from_residuals(rng.uniform(-0.1, 0.1, size=50_000))
        sample = 1.7 + rng.uniform(-0.1, 0.1, size=100_000)
        atoms = deconvolve_atoms(sample, noise, max_types=4)
        assert len(atoms) == 1
        assert atoms.atoms[0] == pytest.approx(1.7, abs=1e-3)

    def test_overlapping_clusters_deconvolved(self, rng):
        # Gap 0.12 < noise support 0.3: clusters overlap, CDF fit must split them.
        noise = NoiseCdf.from_residuals(rng.uniform(-0.15, 0.15, size=80_000))
        sample = draw_mixture(rng, [1.0, 1.12], [0.5, 0.5], 200_000, 0.15)
        atoms = deconvolve_atoms(sample, noise, max_types=3)
        assert len(atoms) == 2
        assert np.allclose(atoms.atoms, [1.0, 1.12], atol=0.02)

    def test_failure_reported(self, rng):
        # Noise CDF that cannot explain the sample at any atom count <= 1.
        noise = NoiseCdf.from_residuals(np.zeros(100))
        sample = rng.uniform(0, 1, size=5000)
        with pytest.raises(DeconvolutionFailure):
            deconvolve_atoms(sample, noise, max_types=1,
                             fit_error_threshold=0.05)

    def test_pinned_bits_and_no_state_between_calls(self, monkeypatch):
        # Atoms, weights and fit error to the last bit: a faster objective
        # must keep the arithmetic, and with it these values.  Sample B takes
        # Nelder-Mead at k = 2 and 3 (the window-cover bound proves its
        # one-atom fit cannot win); calling A, B, A shows that nothing
        # carries over between calls or atom counts.
        import prodenv.identify as identify

        def run(seed, atoms, penalty_c):
            rng = np.random.default_rng(seed)
            noise = NoiseCdf.from_residuals(rng.uniform(-0.1, 0.1, size=2000))
            sample = draw_mixture(rng, atoms, [0.3, 0.3, 0.4], 3000, 0.1)
            fit = deconvolve_atoms(sample, noise, max_types=3, penalty_c=penalty_c)
            return ([v.hex() for v in fit.atoms.tolist()],
                    [v.hex() for v in fit.weights.tolist()], fit.fit_error.hex())

        pinned_a = (["0x1.ff7e0a9c5f353p-1", "0x1.001fb4fbcacafp+1", "0x1.7ff556e8d0d1bp+1"],
                    ["0x1.28eb616bd4d1ap-2", "0x1.298116a925c82p-2", "0x1.ad9387eb05665p-2"],
                    "0x1.608960c94cc40p-7")
        pinned_b = (["0x1.03f9fdb9752dap+0", "0x1.2ecab8f159e2ap+0"],
                    ["0x1.c09095e9a003ap-2", "0x1.1fb7b50b2ffe4p-1"],
                    "0x1.183e865ff25a8p-5")
        first_a = run(101, [1.0, 2.0, 3.0], 1.0)
        sizes = []
        real = identify.minimize
        monkeypatch.setattr(identify, "minimize",
                            lambda f, x0, **kw: sizes.append(len(x0)) or real(f, x0, **kw))
        assert run(0, [1.0, 1.1, 1.2], 0.2) == pinned_b
        assert sizes == [2, 3]
        monkeypatch.undo()
        assert first_a == pinned_a
        assert run(101, [1.0, 2.0, 3.0], 1.0) == first_a

    def test_close_atoms_merge(self):
        noise = NoiseCdf.from_residuals(np.zeros(100))
        sample = np.repeat([1.0, 1.0 + 1e-9], 200)
        atoms = deconvolve_atoms(sample, noise, max_types=4)
        assert len(atoms) == 1


def random_design(seed):
    """A cell sample, its noise law, penalty_c and max_types: uniform,
    clipped-normal or triangular noise of half-width 0.01-0.3, 1-4 atoms
    separated or overlapping, within-cell spread 0, 0.02 or 0.2, and n from
    50 to 5000."""
    rng = np.random.default_rng(seed)
    hw = rng.uniform(0.01, 0.3)
    draw = [lambda size: rng.uniform(-hw, hw, size),
            lambda size: np.clip(rng.normal(0.0, hw / 2, size), -hw, hw),
            lambda size: rng.triangular(-hw, 0.0, hw, size)][seed % 3]
    noise = NoiseCdf.from_residuals(draw(2000))
    m = int(rng.integers(1, 5))
    gap = hw * (3.0 if rng.random() < 0.5 else 0.6)
    atoms = 1.0 + gap * np.arange(m) + rng.uniform(0, 0.1 * hw, m)
    n = int(np.exp(rng.uniform(np.log(50), np.log(5000))))
    spread = [0.0, 0.02, 0.2][int(rng.integers(3))]
    sample = (atoms[rng.choice(m, size=n, p=rng.dirichlet(np.full(m, 3.0)))]
              + rng.uniform(-spread, spread, n) + draw(n))
    return sample, noise, float(rng.choice([0.2, 1.0, 3.0])), int(rng.integers(1, 7))


class TestAtomCountBound:
    @staticmethod
    def outcome(seed):
        sample, noise, c, max_types = random_design(seed)
        try:
            fit = deconvolve_atoms(sample, noise, max_types, penalty_c=c)
        except DeconvolutionFailure as exc:
            return str(exc)
        return ([v.hex() for v in fit.atoms.tolist()],
                [v.hex() for v in fit.weights.tolist()], fit.fit_error.hex(), fit.mgf_ok)

    def test_same_bits_as_the_unpruned_search(self, monkeypatch):
        import prodenv.identify as identify
        calls = []
        real = identify.minimize
        monkeypatch.setattr(identify, "minimize",
                            lambda f, x0, **kw: calls.append(len(x0)) or real(f, x0, **kw))
        pruned = [self.outcome(seed) for seed in range(200)]
        pruned_calls = len(calls)
        monkeypatch.setattr(identify, "_cannot_fit", lambda *args: False)
        assert [self.outcome(seed) for seed in range(200)] == pruned
        # The designs exercise the bound: fewer Nelder-Mead runs, and both
        # fits and failures among the outcomes.
        assert pruned_calls < len(calls) - pruned_calls
        assert {type(o) for o in pruned} == {str, tuple}

    def test_bound_never_exceeds_an_attained_error(self, monkeypatch):
        import prodenv.identify as identify
        real = identify._cannot_fit
        for seed in range(0, 200, 2):
            sample, noise, c, max_types = random_design(seed)
            for k in range(1, max_types + 1):
                grid = []
                # Every count but k is pruned, so the fit error is k's.
                monkeypatch.setattr(identify, "_cannot_fit",
                                    lambda t, f, w, j, theta: grid.append((t, f, w)) or j != k)
                err = deconvolve_atoms(sample, noise, max_types, penalty_c=c,
                                       fit_error_threshold=2.0).fit_error
                assert not real(*grid[0], k, err)

    def test_separated_cell_needs_no_nelder_mead(self, monkeypatch):
        import prodenv.identify as identify

        def fail(*args, **kw):
            raise AssertionError("minimize called")
        rng = np.random.default_rng(3)
        noise = NoiseCdf.from_residuals(rng.uniform(-0.05, 0.05, size=2000))
        sample = draw_mixture(rng, [1.0, 1.5, 2.0], [0.3, 0.3, 0.4], 3000, 0.05)
        monkeypatch.setattr(identify, "minimize", fail)
        fit = deconvolve_atoms(sample, noise, max_types=3, penalty_c=0.2)
        assert np.allclose(fit.atoms, [1.0, 1.5, 2.0], atol=0.005)

    def test_window_cover(self):
        # f_emp rises by 0.5 at t = 1 and t = 3 on a grid of step 1: a
        # window of width 0.5 holds one grid point, so one window leaves a
        # rise on flat ground and two do not.
        t = np.arange(5.0)
        f = np.array([0.0, 0.5, 0.5, 1.0, 1.0])
        assert _cannot_fit(t, f, 0.5, 1, 0.2)
        assert not _cannot_fit(t, f, 0.5, 2, 0.2)
        assert not _cannot_fit(t, f, 0.5, 1, 0.25)             # half the rise
        assert not _cannot_fit(t, f, 3.0, 1, 0.2)              # one wide window
        assert _cannot_fit(t, f, 0.5, 3, -0.1)                 # no fit has err < 0


class TestIdentifySettings:
    @pytest.mark.parametrize("key, value", [
        ("max_types", 0), ("min_anchor_count", 0), ("min_cell_count", 0),
        ("penalty_c", -0.2), ("penalty_c", float("nan")),
        ("fit_error_threshold", 0.0), ("noise_width", -0.5),
        ("anchor_span_slack", -0.1)])
    def test_bad_setting_rejected(self, key, value):
        with pytest.raises(ValidationError, match=f"^{key} must be"):
            IdentifyConfig(**{key: value})

    def test_deconvolve_needs_an_atom(self):
        noise = NoiseCdf.from_residuals(np.zeros(10))
        with pytest.raises(ValidationError, match="max_types must be at least 1"):
            deconvolve_atoms(np.ones(100), noise, max_types=0)


class TestRankAndAssign:
    def test_full_cell_assignment(self):
        cells = synthetic_cells([[0.0]])
        key = list(cells.keys())[0]
        noise = NoiseCdf.from_residuals(np.zeros(10))
        atom_sets = {key: AtomSet(np.array([1.0, 5.0, 9.0]),
                                  np.array([1 / 3, 1 / 3, 1 / 3]), 0.0)}
        out = rank_and_assign(atom_sets, 3, cells, noise)
        assert out[0].values == {1: 1.0, 2: 5.0, 3: 9.0}
        assert out[0].unidentified_below == 0

    def test_partial_cell_top_interval(self):
        cells = synthetic_cells([[0.0]])
        key = list(cells.keys())[0]
        noise = NoiseCdf.from_residuals(np.zeros(10))
        atom_sets = {key: AtomSet(np.array([5.0, 9.0]),
                                  np.array([0.5, 0.5]), 0.0)}
        out = rank_and_assign(atom_sets, 3, cells, noise)
        assert out[0].values == {2: 5.0, 3: 9.0}
        assert out[0].unidentified_below == 1

    def test_too_many_atoms(self):
        cells = synthetic_cells([[0.0]])
        key = list(cells.keys())[0]
        noise = NoiseCdf.from_residuals(np.zeros(10))
        atom_sets = {key: AtomSet(np.array([1.0, 2.0, 3.0]),
                                  np.array([1 / 3] * 3), 0.0)}
        with pytest.raises(IdentificationFailure):
            rank_and_assign(atom_sets, 2, cells, noise)


class TestEndToEnd:
    def make_economy(self):
        b1 = np.array([[0.75, -0.85], [-0.85, 0.65]])
        tech = TechnologySpec.diewert_family(
            [b1, b1 + np.diag([1.0, 0.8]), b1 + np.diag([2.2, 1.7])])
        rays = unit_rays_2d([0.12, 0.40, 0.62, 0.85, 1.08, 1.45])
        cfg = MarketConfig(num_markets=60_000, dimension=2,
                           price_law=("grid", rays),
                           entry_rule=("nonneg_profit",),
                           noise=(0.1, "uniform"), seed=7)
        return tech, cfg

    def test_oracle_recovery_under_selection(self):
        tech, cfg = self.make_economy()
        data = generate_dataset(tech, cfg)
        table = identify_profits(
            data, IdentifyConfig(bucketing=BucketingConfig(mode="unique")))
        assert table.d_e == 3
        n_partial = 0
        for cell in table.cells:
            p = cell.x_center
            present = [e for e in (1, 2, 3) if profit_oracle(tech, e, p)[0] >= 0]
            assert set(cell.values) == set(present)
            assert cell.unidentified_below == 3 - len(present)
            n_partial += cell.unidentified_below > 0
            for e, v in cell.values.items():
                truth = profit_oracle(tech, e, p)[0]
                assert v == pytest.approx(truth, rel=0.01)
            assigned = [cell.values[e] for e in sorted(cell.values)]
            assert np.all(np.diff(assigned) > 0)      # monotone in the type index
        assert n_partial >= 1                         # selection actually bites

    def test_readme_example_seed_10_keeps_every_type(self):
        # The README library example at seed 10.  The last-ray cell is the
        # only one holding all three types, and its fit error lies just
        # above the median cell's; d_e must still count its three atoms.
        b1 = np.array([[0.75, -0.85], [-0.85, 0.65]])
        tech = TechnologySpec.diewert_family(
            [b1, b1 + np.diag([1.0, 0.8]), b1 + np.diag([2.2, 1.7])])
        cfg = MarketConfig(num_markets=200_000, dimension=2,
                           price_law=("grid", unit_rays_2d(np.linspace(0.2, 1.3, 10))),
                           entry_rule=("nonneg_profit",),
                           noise=(0.1, "uniform"), seed=10)
        table = identify_profits(generate_dataset(tech, cfg),
                                 IdentifyConfig(bucketing=BucketingConfig("unique")))
        assert table.d_e == 3
        assert max(len(c.values) for c in table.cells) == 3

    def test_homogeneity_across_scaled_rays(self, rng):
        # Cells whose price vectors are scalar multiples have proportional profits.
        tech = nested_diewert(rng)
        base = np.array([np.cos(0.7), np.sin(0.7)])
        cfg = MarketConfig(num_markets=40_000, dimension=2,
                           price_law=("grid", [base, 2.0 * base]),
                           noise=(0.05, "uniform"), seed=4)
        data = generate_dataset(tech, cfg)
        table = identify_profits(
            data, IdentifyConfig(bucketing=BucketingConfig(mode="unique")))
        cells = sorted(table.cells, key=lambda c: np.linalg.norm(c.x_center))
        assert len(cells) == 2
        for e in (1, 2, 3):
            ratio = cells[1].values[e] / cells[0].values[e]
            assert ratio == pytest.approx(2.0, rel=0.02)

    def test_quantile_bucketing_smoke(self):
        # Continuous prices, coarse buckets: the within-cell smear acts as
        # extra noise; types stay recoverable when the gaps dwarf it.
        b1 = np.array([[0.9, -0.2], [-0.2, 0.8]])
        tech = TechnologySpec.diewert_family(
            [b1, b1 + np.diag([3.0, 2.5]), b1 + np.diag([6.0, 5.0])])
        cfg = MarketConfig(num_markets=30_000, dimension=2,
                           price_law=("box", 0.3, 1.0),
                           noise=(0.05, "uniform"), seed=2)
        data = generate_dataset(tech, cfg)
        table = identify_profits(data, IdentifyConfig(
            bucketing=BucketingConfig(mode="quantile", buckets_per_dim=4),
            min_anchor_count=20, min_cell_count=20,
            fit_error_threshold=0.5, max_types=3, anchor_span_slack=1.0))
        assert table.d_e == 3
        assert len(table.cells) >= 4
        for cell in table.cells:
            for e, v in cell.values.items():
                truth = profit_oracle(tech, e, cell.x_center)[0]
                assert v == pytest.approx(truth, rel=0.2)

    def test_table_json_round_trip(self):
        tech, cfg = self.make_economy()
        data = generate_dataset(tech, MarketConfig(
            num_markets=20_000, dimension=2, price_law=cfg.price_law,
            entry_rule=("all",), noise=(0.1, "uniform"), seed=7))
        table = identify_profits(
            data, IdentifyConfig(bucketing=BucketingConfig(mode="unique")))
        doc = json.loads(json.dumps(table.to_json_dict()))
        back = ProfitTable.from_json_dict(doc)
        assert back.d_e == table.d_e
        assert len(back.cells) == len(table.cells)
        m_old = {c.key: c for c in table.cells}
        for cell in back.cells:
            assert cell.values == pytest.approx(m_old[cell.key].values)


class TestAnchorAccuracy:
    def test_kinked_triple_anchor_value(self):
        # Single-ray economy built from the nonmonotone triple: the anchor
        # mean must sit within 3*(K/2)/sqrt(n) of the oracle profit.
        tech = TechnologySpec.nonmonotone_supply_triple()
        ray = np.array([0.12, 1.0]) / np.linalg.norm([0.12, 1.0])
        half = 0.001
        cfg = MarketConfig(num_markets=100_000, dimension=2,
                           price_law=("grid", [ray]),
                           noise=(half, "uniform"), seed=6)
        data = generate_dataset(tech, cfg)
        from prodenv.identify import build_cells
        cells = build_cells(data, BucketingConfig(mode="unique"))
        anchor = find_separated_cell(cells, data.noise_width)
        cdf, value = estimate_noise_cdf(cells[anchor.cell_key], anchor)
        e_star = 3 - anchor.e_star_offset
        truth = profit_oracle(tech, e_star, ray)[0]
        n = anchor.count
        assert abs(value - truth) <= 3 * half / np.sqrt(n)
