"""The checker against the brute-force oracle, unbounded and under every
step budget up to 2·|Q|, on generated lassos and formulas."""

from hypothesis import assume, given, settings, strategies as st

from reconfcheck import CpEvalError, check, oracle_verdict
from reconfcheck.checker import CheckOptions, REASON_BUDGET, REASON_CYCLE

import generators


@settings(max_examples=250)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_every_budget_agrees_with_the_oracle(seed):
    f, a, c0, ops = generators.gen_case(seed)
    try:
        unbounded = check(f, a, c0, ops)
        bounded = [check(f, a, c0, ops, CheckOptions(max_steps=k))
                   for k in range(1, 2 * a.n_states + 1)]
        reference = oracle_verdict(f, a, c0, ops)
    except CpEvalError:
        assume(False)
    gated = unbounded.reason != REASON_CYCLE
    if gated:
        assert not unbounded.is_unknown
        if reference is not None:
            assert unbounded.is_holds is reference
    for verdict in bounded:
        if verdict.is_unknown:
            assert verdict.reason == REASON_BUDGET
        elif gated:
            # a budget only cuts the walk short: what it decides is the same
            assert (verdict.status, verdict.witness) == \
                (unbounded.status, unbounded.witness)
        elif reference is not None:
            # the literal semantics on a gate-refused window
            assert verdict.is_holds is reference
