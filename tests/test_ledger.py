"""Parameter and compute accounting against hand-derived sums."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import rinslab as rl
from rinslab.ledger import layer_pass_cost, plan_layers_per_block


def hand_params(dims: rl.ModelDims, n_blocks: int, lpb: int) -> int:
    d, m, v, s = dims.d_model, dims.mlp_dim, dims.vocab, dims.seq_len
    per_layer = 4 * (d * d + d) + (d * m + m) + (m * d + d) + 4 * d
    return v * d + s * d + (d * v + v) + 2 * d + n_blocks * lpb * per_layer


class TestParamCount:
    def test_hand_sum_tiny(self, tiny_dims):
        plan = rl.expand(rl.parse("AB"))
        want = hand_params(tiny_dims, 2, 2)
        assert rl.param_count(plan, tiny_dims) == want == 2643

    def test_tying_does_not_add_params(self, tiny_dims):
        ab = rl.param_count(rl.expand(rl.parse("AB")), tiny_dims)
        aab = rl.param_count(rl.expand(rl.parse("AAB")), tiny_dims)
        aaab = rl.param_count(rl.expand(rl.parse("A^3B")), tiny_dims)
        assert ab == aab == aaab

    def test_matches_allocated_arrays(self, tiny_dims):
        plan = rl.expand(rl.parse("AAB"))
        model = rl.RecursiveModel(tiny_dims, plan, rl.RecursionPolicy(r_max=2))
        params = model.init_params(0)
        assert sum(p.size for p in params.values()) == rl.param_count(plan, tiny_dims)

    def test_adapters_counted_separately(self, tiny_dims):
        plan = rl.expand(rl.parse("A^3B"))
        base = rl.param_count(plan, tiny_dims)
        model = rl.RecursiveModel(
            tiny_dims, plan, rl.RecursionPolicy(r_max=3, adapters=True)
        )
        params = model.init_params(0)
        assert sum(p.size for p in params.values()) == base + 3 * 64
        assert rl.adapter_fraction(params)["adapter_params"] == 3 * 8 * 8

    def test_degree_two_blocks(self):
        dims = rl.ModelDims(
            d_model=8, n_heads=2, mlp_dim=16, vocab=11, seq_len=5, total_layers=8
        )
        plan = rl.expand(rl.parse("ABB", degree=2))  # 4 unique blocks, lpb 2
        assert rl.param_count(plan, dims) == hand_params(dims, 4, 2)


class TestStepCost:
    def test_layer_pass_unit(self, tiny_dims):
        ab = rl.expand(rl.parse("AB"))
        assert rl.step_cost(ab, tiny_dims) == 2 * 2 * 5  # calls * lpb * seq
        aab = rl.expand(rl.parse("AAB"))
        assert rl.step_cost(aab, tiny_dims) == 3 * 2 * 5

    def test_exact_flops_scales_with_width(self):
        dims1 = rl.ModelDims(
            d_model=8, n_heads=2, mlp_dim=16, vocab=11, seq_len=5, total_layers=4
        )
        dims2 = rl.ModelDims(
            d_model=16, n_heads=2, mlp_dim=32, vocab=11, seq_len=5, total_layers=4
        )
        plan = rl.expand(rl.parse("AB"))
        c1 = rl.step_cost(plan, dims1, mode="exact-flops")
        c2 = rl.step_cost(plan, dims2, mode="exact-flops")
        per_tok_layer_1 = 8 * 8 * 8 + 4 * 8 * 5 + 4 * 8 * 16
        assert c1 == 4 * 5 * per_tok_layer_1
        assert c2 > 2 * c1  # superlinear in width at fixed depth

    def test_bad_mode_rejected(self, tiny_dims):
        with pytest.raises(ValueError):
            rl.step_cost(rl.expand(rl.parse("AB")), tiny_dims, mode="guess")


class TestMatchedSteps:
    def test_reference_integers(self, tiny_dims):
        ab = rl.expand(rl.parse("AB"))
        aab = rl.expand(rl.parse("AAB"))
        abab = rl.expand(rl.parse("ABAB"))
        d = tiny_dims
        assert rl.matched_steps(ab, aab, d, d, 200_000) == 133_333
        assert rl.matched_steps(ab, abab, d, d, 200_000) == 100_000
        assert rl.matched_steps(ab, ab, d, d, 200_000) == 200_000

    def test_flooring_is_exact_not_float(self, tiny_dims):
        # 200000 * 2/3 = 133333.33..; float rounding must not creep to 133334
        ab = rl.expand(rl.parse("AB"))
        aab = rl.expand(rl.parse("AAB"))
        got = rl.matched_steps(ab, aab, tiny_dims, tiny_dims, 200_000)
        want = int(Fraction(200_000) * Fraction(2, 3))
        assert got == want

    def test_four_thirds_cost_ratio(self, tiny_dims):
        dims = rl.ModelDims(
            d_model=8, n_heads=2, mlp_dim=16, vocab=11, seq_len=5, total_layers=12
        )
        abbc = rl.step_cost(rl.expand(rl.parse("ABBC")), dims)
        abc = rl.step_cost(rl.expand(rl.parse("ABC")), dims)
        assert Fraction(int(abbc), int(abc)) == Fraction(4, 3)

    def test_cross_dims_matching(self):
        small = rl.ModelDims(
            d_model=8, n_heads=2, mlp_dim=16, vocab=11, seq_len=5, total_layers=4
        )
        long = rl.ModelDims(
            d_model=8, n_heads=2, mlp_dim=16, vocab=11, seq_len=10, total_layers=4
        )
        ab = rl.expand(rl.parse("AB"))
        assert rl.matched_steps(ab, ab, small, long, 1000) == 500


class TestExpectedCost:
    def test_p_zero_equals_full_cost(self, tiny_dims):
        plan = rl.expand(rl.parse("A^3B"))
        assert rl.expected_stochastic_cost(plan, tiny_dims, 0.0) == rl.step_cost(
            plan, tiny_dims
        )

    def test_affine_in_p(self, tiny_dims):
        plan = rl.expand(rl.parse("A^3B"))
        c25 = rl.expected_stochastic_cost(plan, tiny_dims, 0.25)
        c50 = rl.expected_stochastic_cost(plan, tiny_dims, 0.5)
        c75 = rl.expected_stochastic_cost(plan, tiny_dims, 0.75)
        assert c50 == pytest.approx((c25 + c75) / 2)
        # two always-on calls (first A, final B) set the p -> 1 floor
        assert rl.expected_stochastic_cost(plan, tiny_dims, 0.999) == pytest.approx(
            (2 + 2 * 0.001) * 2 * 5
        )
        with pytest.raises(ValueError):
            rl.expected_stochastic_cost(plan, tiny_dims, 1.0)

    def test_hand_value(self, tiny_dims):
        # A^3B: 2 always + 2 eligible; p=0.5 -> 2 + 1 expected calls
        plan = rl.expand(rl.parse("A^3B"))
        assert rl.expected_stochastic_cost(plan, tiny_dims, 0.5) == 3 * 2 * 5


class TestSweep:
    def test_enumeration_size_and_feasibility(self):
        cands = rl.enumerate_sweep(8)
        assert len(cands) == 31
        feas = {(s.symbols, s.degree): f for s, f in cands}
        assert feas[("AB", 1)] if ("AB", 1) in feas else True
        assert feas[("AAB", 3)] is True  # 8 unique leaves at 8 layers
        assert feas[("ABBC", 2)] is False  # 9 unique leaves
        # identity family present
        assert ("A", 1) in feas and ("AAAA", 1) in feas

    def test_infeasible_at_tiny_depth(self):
        cands = rl.enumerate_sweep(2)
        feas = {(s.symbols, s.degree): f for s, f in cands}
        assert feas[("AAB", 1)] is True  # 2 blocks, 1 layer each
        assert feas[("ABBC", 1)] is False  # 3 blocks cannot fit in 2 layers

    def test_manifest_round_trip(self, tiny_dims):
        # The sweep's matched-step entries against a 1000-step AB baseline.
        base = rl.expand(rl.parse("AB"))

        def steps(text):
            plan = rl.expand(rl.parse(text))
            return rl.matched_steps(base, plan, tiny_dims, tiny_dims, 1000)

        # single-block A applies the whole stack once: same cost as AB baseline
        assert steps("A") == 1000
        assert steps("AA") == 500


class TestOneLedger:
    """The ledger, the executor and the trainer price a plan by one rule,
    even when a hand-built plan has more distinct leaves than its source."""

    @pytest.fixture
    def hand_plan(self):
        # Three distinct leaves, where the source signature AB has two.
        return rl.ExecutionPlan(
            (0, 1, 2, 0), 3, (False, True, True, False), rl.parse("AB")
        )

    def test_ledger_prices_what_the_executor_builds_and_runs(self, tiny_dims, hand_plan):
        model = rl.RecursiveModel(tiny_dims, hand_plan, rl.RecursionPolicy(r_max=3))
        assert model.layers_per_block == 1  # 4 layers // 3 leaves
        passes = len(model.plan.calls(3)) * model.layers_per_block * tiny_dims.seq_len
        assert rl.step_cost(hand_plan, tiny_dims) == passes == 20
        params = model.init_params(0)
        assert rl.param_count(hand_plan, tiny_dims) == sum(p.size for p in params.values())
        assert rl.param_count(hand_plan, tiny_dims) == hand_params(tiny_dims, 3, 1)

    def test_trace_compute_is_the_ledger_price_of_each_step(self, hand_plan):
        dims = rl.ModelDims(d_model=16, n_heads=2, mlp_dim=32, vocab=11, seq_len=8,
                            total_layers=4)
        model = rl.RecursiveModel(dims, hand_plan, rl.RecursionPolicy(r_max=3, p_skip=0.5))
        executed = []
        run = model.loss_and_grads

        def spy(*args, **kwargs):
            out = run(*args, **kwargs)
            executed.append(out[2]["exec"])
            return out

        model.loss_and_grads = spy
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, dims.vocab - 1, size=(3, 4, dims.seq_len))
        batches = [rl.PackedBatch(t, np.roll(t, -1, axis=1), np.zeros(t.shape, bool))
                   for t in tokens]
        cfg = rl.TrainConfig(peak_lr=1e-3, warmup_steps=2, total_steps=12, seed=4)
        trace, _ = rl.train(model, model.init_params(0), batches, cfg)
        assert not trace.aborted and len(executed) == len(trace.records) == 12
        assert len({len(e) for e in executed}) > 1  # the sampled depth varied
        cum = 0.0
        for rec, seq in zip(trace.records, executed):
            price = layer_pass_cost(hand_plan, dims, len(seq))
            assert price == len(seq) * 1 * dims.seq_len  # one layer per block
            cum += price
            assert rec.compute == cum
        assert trace.expected_cost_per_step == rl.expected_stochastic_cost(
            hand_plan, dims, 0.5) == layer_pass_cost(hand_plan, dims, 3.0)

    def test_one_infeasibility_message(self, tiny_dims):
        plan = rl.expand(rl.parse("ABBC", degree=2))  # 9 leaves at 4 layers
        calls = [
            lambda: rl.RecursiveModel(tiny_dims, plan),
            lambda: rl.step_cost(plan, tiny_dims),
            lambda: rl.param_count(plan, tiny_dims),
            lambda: rl.expected_stochastic_cost(plan, tiny_dims, 0.5),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(rl.InfeasiblePlanError) as ei:
                call()
            messages.add(str(ei.value))
        assert len(messages) == 1
        (message,) = messages
        assert "layers_per_block=0" in message
        ini = (
            "[run]\nname = x\n[signature]\nvalue = ABBC@d2\n"
            "[model]\nd_model = 8\nn_heads = 2\nmlp_dim = 16\nvocab = 11\n"
            "seq_len = 5\ntotal_layers = 4\n"
            "[train]\ntotal_steps = 1\n[corpus]\ntrain = grammar:100\n"
        )
        with pytest.raises(rl.ConfigError) as ei:
            rl.parse_run_config(ini)
        assert str(ei.value) == f"signature.value: {message}"

    def test_infeasible_spec_refused_before_expanding(self, monkeypatch):
        import rinslab.lab as lab_mod

        def no_expand(sig):
            raise AssertionError(f"expanded {sig}")

        monkeypatch.setattr(lab_mod, "expand", no_expand)
        # ABCD@d9 has 4**9 = 262144 leaves; expanding it took 0.29 s
        ini = (
            "[run]\nname = x\n[signature]\nvalue = ABCD@d9\n"
            "[model]\nd_model = 8\nn_heads = 2\nmlp_dim = 16\nvocab = 11\n"
            "seq_len = 5\ntotal_layers = 4\n"
            "[train]\ntotal_steps = 1\n[corpus]\ntrain = grammar:100\n"
        )
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            with pytest.raises(rl.ConfigError, match="needs 262144 distinct blocks"):
                rl.parse_run_config(ini)
            times.append(time.perf_counter() - t0)
        assert min(times) < 0.02, times


def _is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(any(x == y for y in rest) for x in short)


def _agreement_plans():
    """Every sweep candidate feasible at 4 or 8 layers, plus hand-built masks."""
    cases = [
        (sig, layers) for layers in (4, 8)
        for sig, feasible in rl.enumerate_sweep(layers) if feasible
    ]
    plans = [(rl.expand(sig), layers) for sig, layers in cases]
    hand = [
        ((0, 1, 2, 1, 3), 4, (False, True, False, True, False)),
        ((0, 1, 0, 1), 2, (False, True, True, False)),
        ((0, 1, 2, 0), 3, (False, True, True, False)),
        ((0, 0, 1, 0, 1), 2, (False, False, True, True, False)),
    ]
    plans += [(rl.ExecutionPlan(seq, n, mask, rl.parse("AB")), layers)
              for seq, n, mask in hand for layers in (4, 8)]
    return plans


class TestLedgerAndPlanAgree:
    dims = {layers: rl.ModelDims(d_model=8, n_heads=2, mlp_dim=16, vocab=11,
                                 seq_len=5, total_layers=layers) for layers in (4, 8)}

    def test_calls_nest_and_price_every_plan(self):
        plans = _agreement_plans()
        assert len(plans) > 30 and any(p.r_max >= 3 for p, _ in plans)
        for plan, layers in plans:
            dims = self.dims[layers]
            assert plan.calls(plan.r_max) == list(plan.leaf_sequence)
            for k in range(1, plan.r_max):
                short, long = plan.calls(k), plan.calls(k + 1)
                assert len(short) == len(long) - 1 and _is_subsequence(short, long)
            for k in (0, plan.r_max + 1):
                with pytest.raises(ValueError):
                    plan.calls(k)
            assert rl.step_cost(plan, dims) == layer_pass_cost(
                plan, dims, len(plan.calls(plan.r_max)))

    @pytest.mark.parametrize("p_skip", [0.25, 0.5, 0.8])
    def test_expected_cost_is_the_binomial_mean_of_calls(self, p_skip):
        stochastic = [(p, n) for p, n in _agreement_plans() if p.r_max >= 2]
        assert len(stochastic) >= 8
        for plan, layers in stochastic:
            dims, n = self.dims[layers], plan.r_max - 1
            q = 1.0 - p_skip  # each eligible call runs with probability q
            want = sum(
                math.comb(n, j) * q ** j * (1.0 - q) ** (n - j)
                * layer_pass_cost(plan, dims, len(plan.calls(1 + j)))
                for j in range(n + 1)
            )
            got = rl.expected_stochastic_cost(plan, dims, p_skip)
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_layers_per_block(self):
        assert plan_layers_per_block(rl.parse("AB"), self.dims[4]) == 2
        assert plan_layers_per_block(rl.parse("ABB", degree=2), self.dims[8]) == 2
        sig = rl.parse("ABBC", degree=2)  # 9 leaves at 8 layers
        with pytest.raises(rl.InfeasiblePlanError, match="layers_per_block=0"):
            plan_layers_per_block(sig, self.dims[8])
        assert dict(rl.enumerate_sweep(8))[sig] is False
