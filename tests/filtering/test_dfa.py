"""Unit and property tests for the lazily determinised query DFA."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.filtering.dfa import (
    DEAD,
    LOOKUP_DFA_CACHE_SIZE,
    LazyQueryDFA,
    query_dfa,
)
from repro.xpath.parser import parse_query
from tests.strategies import label_paths, queries


class TestLazyQueryDFA:
    def test_accepts_path(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b"), parse_query("/a//c")])
        assert dfa.accepts_path(("a", "b"))
        assert dfa.accepts_path(("a", "x", "c"))
        assert not dfa.accepts_path(("a",))
        assert not dfa.accepts_path(("b",))

    def test_dead_state_is_not_live(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b")])
        dead = dfa.run(("z",))
        assert not dfa.is_live(dead)
        assert dfa.is_live(dfa.run(("a",)))

    def test_descendant_states_stay_live(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a//b")])
        assert dfa.is_live(dfa.run(("a", "x", "y", "z")))

    def test_accepted_queries(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a"), parse_query("//a")])
        state = dfa.run(("a",))
        assert dfa.accepted_queries(state) == {0, 1}

    def test_transitions_memoised(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b")])
        dfa.run(("a", "b"))
        first = dfa.materialised_transitions
        dfa.run(("a", "b"))
        assert dfa.materialised_transitions == first  # cache hit, no growth

    def test_dead_short_circuit(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b")])
        state = dfa.run(("z", "a", "b", "c"))
        assert not state  # dead configuration is falsy

    @given(st.lists(queries(), min_size=1, max_size=4), label_paths)
    def test_matches_query_semantics(self, query_list, path):
        """DFA acceptance == direct matches_path, for every query."""
        dfa = LazyQueryDFA.from_queries(query_list)
        state = dfa.run(path)
        accepted = dfa.accepted_queries(state)
        expected = {
            index
            for index, query in enumerate(query_list)
            if query.matches_path(path)
        }
        assert accepted == expected

    @given(st.lists(queries(), min_size=1, max_size=3), label_paths)
    def test_liveness_matches_viable_prefix(self, query_list, path):
        """A state is live iff the path is a viable prefix of some query."""
        dfa = LazyQueryDFA.from_queries(query_list)
        live = dfa.is_live(dfa.run(path))
        viable = any(query.is_viable_prefix(path) for query in query_list)
        assert live == viable


class TestStateInterning:
    def test_same_configuration_same_id(self):
        """Paths reaching one NFA configuration share one interned state."""
        dfa = LazyQueryDFA.from_queries([parse_query("/a//b")])
        first = dfa.run(("a", "x"))
        second = dfa.run(("a", "y", "z"))
        assert first == second
        assert isinstance(first, int)
        assert dfa.configuration(first) == dfa.configuration(second)
        assert dfa.run(("a", "q", "r", "s")) == first

    def test_distinct_configurations_distinct_ids(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b")])
        start, after_a, after_ab = dfa.start, dfa.run(("a",)), dfa.run(("a", "b"))
        assert len({start, after_a, after_ab}) == 3
        assert dfa.is_accepting(after_ab) and not dfa.is_accepting(after_a)

    def test_dead_state_is_absorbing_and_falsy(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b")])
        dead = dfa.run(("z",))
        assert dead == DEAD == 0
        assert not dead
        assert dfa.configuration(dead) == ()
        for label in ("a", "b", "z"):
            assert dfa.step(dead, label) == DEAD
        assert not dfa.is_accepting(dead)
        assert dfa.accepted_queries(dead) == set()

    def test_lru_shares_dfa_for_equal_queries(self):
        first = query_dfa(parse_query("/a//b"))
        again = query_dfa(parse_query("/a//b"))  # equal, distinct object
        assert again is first
        assert query_dfa(parse_query("/a/b")) is not first

    def test_lru_is_bounded(self):
        probe = parse_query("/a/b/c/d")
        held = query_dfa(probe)
        for index in range(LOOKUP_DFA_CACHE_SIZE):
            query_dfa(parse_query(f"/lru{index}"))
        assert query_dfa(probe) is not held  # evicted, rebuilt

    @given(st.lists(queries(), min_size=1, max_size=3), label_paths)
    def test_accept_flag_matches_configuration(self, query_list, path):
        """The O(1) flag agrees with scanning the NFA configuration."""
        dfa = LazyQueryDFA.from_queries(query_list)
        state = dfa.run(path)
        assert dfa.is_accepting(state) == dfa.nfa.is_accepting(
            dfa.configuration(state)
        )
        assert dfa.is_live(state) == bool(dfa.configuration(state))
