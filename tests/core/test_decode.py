"""Unit tests for the ordering decoder (paper Sec. 4.6 decoder semantics)."""

import dataclasses
import itertools

import pytest

from repro.core.decode import (
    DecodeError,
    LengthDecoder,
    decode_order,
    decoded_length,
)
from repro.core.delta import delta_transitions
from repro.core.program import StepKind
from repro.workloads.library import (
    fig6_m,
    fig6_m_prime,
    fig7_m,
    fig7_m_prime,
)
from repro.workloads.mutate import workload_pair


class TestDecodeBasics:
    def test_decoded_program_is_valid(self, fig6_pair):
        m, mp = fig6_pair
        order = delta_transitions(m, mp)
        assert decode_order(m, mp, order).is_valid()

    def test_every_permutation_of_fig6_is_valid(self, fig6_pair):
        import itertools

        m, mp = fig6_pair
        deltas = delta_transitions(m, mp)
        lengths = set()
        for perm in itertools.permutations(deltas):
            program = decode_order(m, mp, list(perm))
            assert program.is_valid()
            lengths.add(len(program))
        # The ordering genuinely matters: different lengths occur.
        assert len(lengths) > 1

    def test_rejects_partial_order(self, fig6_pair):
        m, mp = fig6_pair
        deltas = delta_transitions(m, mp)
        with pytest.raises(DecodeError, match="permutation"):
            decode_order(m, mp, deltas[:-1])

    def test_rejects_duplicated_order(self, fig6_pair):
        m, mp = fig6_pair
        deltas = delta_transitions(m, mp)
        with pytest.raises(DecodeError, match="permutation"):
            decode_order(m, mp, deltas[:-1] + [deltas[0]])

    def test_rejects_order_whose_str_collides(self, fig6_pair):
        # Relabelling input "0" as the int 0 keeps every str() the same
        # but names a total state outside the table domain.
        m, mp = fig6_pair
        deltas = delta_transitions(m, mp)
        assert deltas[0].input == "0"
        forged = [dataclasses.replace(deltas[0], input=0)] + deltas[1:]
        assert sorted(map(str, forged)) == sorted(map(str, deltas))
        with pytest.raises(DecodeError, match="permutation"):
            decode_order(m, mp, forged)
        with pytest.raises(DecodeError, match="permutation"):
            decoded_length(m, mp, forged)

    def test_rejects_foreign_i0(self, fig6_pair):
        m, mp = fig6_pair
        with pytest.raises(ValueError, match="not an input symbol"):
            decode_order(m, mp, delta_transitions(m, mp), i0="zz")

    def test_trivial_migration_decodes_to_short_program(self, detector):
        program = decode_order(detector, detector, [])
        assert program.is_valid()
        assert len(program) <= 1  # at most a final reset

    def test_method_label(self, fig6_pair):
        m, mp = fig6_pair
        program = decode_order(
            m, mp, delta_transitions(m, mp), method="custom"
        )
        assert program.method == "custom"


class TestConnectionRules:
    def test_adjacent_deltas_chain_without_jumps(self, fig7_pair):
        m, mp = fig7_pair
        deltas = delta_transitions(m, mp)
        program = decode_order(m, mp, deltas, start="S0")
        # Example 4.2: temporary + delta + repair = 3 cycles.
        assert len(program) == 3
        kinds = [s.kind for s in program]
        assert kinds.count(StepKind.WRITE_TEMPORARY) == 1
        assert kinds.count(StepKind.WRITE_REPAIR) == 1

    def test_distance_one_uses_traverse(self):
        m, mp = fig6_m(), fig6_m_prime()
        deltas = delta_transitions(m, mp)
        # Put the S1-sourced delta first: S0 -> S1 is one existing hop.
        first = next(t for t in deltas if t.source == "S1")
        rest = [t for t in deltas if t is not first]
        program = decode_order(m, mp, [first] + rest, start="S0")
        assert program.steps[0].kind is StepKind.TRAVERSE
        assert program.steps[0].transition.target == "S1"

    def test_repairs_only_home_entry(self, fig6_pair):
        m, mp = fig6_pair
        deltas = delta_transitions(m, mp)
        program = decode_order(m, mp, deltas, i0="1")
        repairs = [s for s in program if s.kind is StepKind.WRITE_REPAIR]
        assert all(
            s.transition.entry == ("1", mp.reset_state) for s in repairs
        )
        assert len(repairs) <= 1

    def test_no_repair_when_no_temporary_used(self, fig7_pair):
        m, mp = fig7_pair
        deltas = delta_transitions(m, mp)
        program = decode_order(m, mp, deltas, use_temporary=False, start="S0")
        kinds = [s.kind for s in program]
        assert StepKind.WRITE_TEMPORARY not in kinds
        assert StepKind.WRITE_REPAIR not in kinds
        assert program.is_valid()
        # Walking the ones-chain: 3 traverses + 1 delta write, ending in
        # S0 already — the Example 4.2 "four cycles" program.
        assert len(program) == 4

    def test_use_temporary_false_fails_on_unreachable_states(self, fig6_pair):
        m, mp = fig6_pair
        deltas = delta_transitions(m, mp)
        # S3 only becomes reachable through a delta write; ordering the
        # S3-sourced deltas first forces a temporary jump.
        s3_first = sorted(deltas, key=lambda t: t.source != "S3")
        with pytest.raises(DecodeError, match="unreachable"):
            decode_order(m, mp, s3_first, use_temporary=False)


class TestSmartConnect:
    def test_smart_connect_never_longer(self):
        for seed in range(8):
            src, tgt = workload_pair(8, 6, seed=seed)
            deltas = delta_transitions(src, tgt)
            plain = decoded_length(src, tgt, deltas)
            smart = decoded_length(src, tgt, deltas, smart_connect=True)
            assert smart <= plain + 1  # the dirty-entry repair amortises

    def test_smart_connect_valid(self):
        src, tgt = workload_pair(8, 6, seed=3)
        deltas = delta_transitions(src, tgt)
        assert decode_order(src, tgt, deltas, smart_connect=True).is_valid()


class TestDecodedLength:
    def test_matches_program_length(self, fig6_pair):
        m, mp = fig6_pair
        deltas = delta_transitions(m, mp)
        assert decoded_length(m, mp, deltas) == len(decode_order(m, mp, deltas))

    def test_lower_bound_respected(self):
        for seed in range(6):
            src, tgt = workload_pair(9, 5, seed=seed)
            deltas = delta_transitions(src, tgt)
            assert decoded_length(src, tgt, deltas) >= len(deltas)


class TestLengthDecoder:
    @pytest.mark.parametrize("smart_connect", [False, True])
    @pytest.mark.parametrize("use_temporary", [True, False])
    @pytest.mark.parametrize("start", [None, "S0", "S3"])
    def test_every_fig6_permutation_matches_decode_order(
        self, fig6_pair, smart_connect, use_temporary, start
    ):
        m, mp = fig6_pair
        for i0 in mp.inputs:
            options = dict(
                i0=i0,
                start=start,
                smart_connect=smart_connect,
                use_temporary=use_temporary,
            )
            decoder = LengthDecoder(m, mp, **options)
            for perm in itertools.permutations(range(len(decoder.deltas))):
                order = [decoder.deltas[k] for k in perm]
                try:
                    want = len(decode_order(m, mp, order, **options))
                except DecodeError:
                    with pytest.raises(DecodeError, match="unreachable"):
                        decoder.length(perm)
                    continue
                assert decoder.length(perm) == want

    def test_indices_round_trip(self, fig6_pair):
        m, mp = fig6_pair
        decoder = LengthDecoder(m, mp)
        order = decoder.deltas[::-1]
        assert decoder.indices(order) == [3, 2, 1, 0]

    @pytest.mark.parametrize(
        "indices", [[0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 4], [0, 1, 2, 3, 0]]
    )
    def test_length_rejects_non_permutation(self, fig6_pair, indices):
        decoder = LengthDecoder(*fig6_pair)
        with pytest.raises(DecodeError, match="permutation"):
            decoder.length(indices)

    def test_rejects_foreign_i0(self, fig6_pair):
        with pytest.raises(ValueError, match="not an input symbol"):
            LengthDecoder(*fig6_pair, i0="zz")

    def test_trivial_migration(self, detector):
        decoder = LengthDecoder(detector, detector)
        assert decoder.length([]) == len(decode_order(detector, detector, []))
