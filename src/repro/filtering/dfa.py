"""Lazily determinised DFA over the shared-path NFA.

Index pruning (paper Section 3.2) "first builds a DFA based on the set of
queries Q pending at the server side" and then checks every Compact Index
node against it.  Full subset construction is wasteful -- only the state
sets actually reachable through the index's label paths matter -- so the
DFA is determinised *lazily*: each (configuration, label) transition is
computed once through the NFA and memoised.

The same automaton drives the client's index search: a one-tier client
repeats its search in every cycle (Section 3.1), so
:func:`query_dfa` keeps one single-query DFA per query in a bounded LRU
and :meth:`~repro.index.ci.CompactIndex.lookup` walks it, cycle after
cycle, without recompiling the NFA or re-running a determinised move.

A DFA state is a small ``int`` interning one canonical NFA configuration
(the flat automaton's sorted state-id tuple).  Id ``0`` is reserved for
the dead (empty) configuration, so a dead state is falsy.  Each state
owns a ``label -> state`` row and an entry in the :attr:`accepting` flag
list, which makes both predicates O(1):

* ``is_accepting`` -- some query matches the path consumed so far (the
  node is a *result node*);
* ``is_live`` -- the configuration is non-empty, i.e. the path consumed so
  far is still a viable prefix of some query match (the node may have
  result descendants).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence, Set

from repro.filtering.nfa import Configuration, SharedPathNFA
from repro.xmlkit.model import LabelPath
from repro.xpath.ast import XPathQuery

#: An interned DFA state id (``DEAD`` for the empty configuration).
DFAState = int

#: The dead state: no query can match at or below the consumed path.
DEAD: DFAState = 0

#: How many single-query lookup DFAs :func:`query_dfa` keeps.  A client
#: population's distinct queries number in the hundreds, so this holds a
#: whole workload while bounding a long-running process.
LOOKUP_DFA_CACHE_SIZE = 1024


class LazyQueryDFA:
    """Memoised subset-construction DFA over a query-set NFA."""

    def __init__(self, nfa: SharedPathNFA) -> None:
        self.nfa = nfa.freeze()
        self._ids: Dict[Configuration, DFAState] = {(): DEAD}
        self._configurations: List[Configuration] = [()]
        #: per-state memoised ``label -> state`` transitions and accept
        #: flags, indexed by state id (read-only outside this class: hot
        #: loops read a row directly and fall back to :meth:`step` on a miss)
        self.rows: List[Dict[str, DFAState]] = [{}]
        self.accepting: List[bool] = [False]
        self._transition_count = 0
        self._start = self._intern(self.nfa.initial_states())

    @classmethod
    def from_queries(cls, queries: Sequence[XPathQuery]) -> "LazyQueryDFA":
        nfa = SharedPathNFA()
        nfa.add_queries(queries)
        return cls(nfa)

    @property
    def start(self) -> DFAState:
        return self._start

    @property
    def materialised_transitions(self) -> int:
        """How many transitions have been determinised so far."""
        return self._transition_count

    def configuration(self, state: DFAState) -> Configuration:
        """The NFA configuration behind an interned state."""
        return self._configurations[state]

    def _intern(self, configuration: Configuration) -> DFAState:
        state = self._ids.get(configuration)
        if state is None:
            state = len(self._configurations)
            self._ids[configuration] = state
            self._configurations.append(configuration)
            self.rows.append({})
            self.accepting.append(self.nfa.is_accepting(configuration))
        return state

    def step(self, state: DFAState, label: str) -> DFAState:
        """The (memoised) DFA transition on *label*."""
        row = self.rows[state]
        target = row.get(label)
        if target is None:
            target = self._intern(self.nfa.move(self._configurations[state], label))
            row[label] = target
            self._transition_count += 1
        return target

    def run(self, path: LabelPath) -> DFAState:
        """Consume a whole label path from the start state."""
        state = self._start
        for label in path:
            state = self.step(state, label)
            if not state:
                return state
        return state

    def is_accepting(self, state: DFAState) -> bool:
        """Does some query match exactly the consumed path?"""
        return self.accepting[state]

    def accepted_queries(self, state: DFAState) -> Set[int]:
        return self.nfa.accepted_queries(self._configurations[state])

    def is_live(self, state: DFAState) -> bool:
        """Could the consumed path still be extended into a match?"""
        return state != DEAD

    def accepts_path(self, path: LabelPath) -> bool:
        """Does some query match *path*?"""
        return self.accepting[self.run(path)]


_lookup_dfas: "OrderedDict[XPathQuery, LazyQueryDFA]" = OrderedDict()


def query_dfa(query: XPathQuery) -> LazyQueryDFA:
    """The shared single-query lookup DFA of *query* (LRU-cached).

    Equal queries share one automaton, so its memoised transitions carry
    over from one cycle's index search to the next.
    """
    dfa = _lookup_dfas.get(query)
    if dfa is not None:
        _lookup_dfas.move_to_end(query)
        return dfa
    dfa = LazyQueryDFA.from_queries([query])
    _lookup_dfas[query] = dfa
    if len(_lookup_dfas) > LOOKUP_DFA_CACHE_SIZE:
        _lookup_dfas.popitem(last=False)
    return dfa
