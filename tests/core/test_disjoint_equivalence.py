"""The budget-map disjoint sender against the callback oracle.

:class:`~repro.core.disjoint.DisjointSender` spends one integer budget per
child and keeps no record of what it sent in earlier batches;
:class:`oracles.disjoint.CallbackDisjointSender` asks a transport callback
per offer and keeps a per-child ``sent_filter`` across batches.  Fed runs
of batches of distinct, never-repeated sequences — what
``WorkingSet.add_many`` hands a node — with the same budgets, sending-factor
updates, joins and epoch resets, the two must choose the same recipients
after every batch and agree on every child's counters.  The last test pins
the working-set invariant that makes a filter across batches dead state.
"""

from hypothesis import given, settings, strategies as st
from oracles.disjoint import CallbackDisjointSender

from repro.core.config import BulletConfig
from repro.core.disjoint import DisjointSender
from repro.reconcile.working_set import WorkingSet

child_ids = st.integers(min_value=0, max_value=7)
keys = st.integers(min_value=0, max_value=300)

configs = st.builds(
    BulletConfig,
    disjoint_send=st.booleans(),
    # 12 Kbps is one packet a second: limiting-factor steps of 1, 1/5 and
    # 1/20, beside the default stream's 1/250.
    stream_rate_kbps=st.sampled_from([12.0, 600.0]),
    ransub_epoch_s=st.sampled_from([1.0, 5.0, 20.0]),
    # A small window makes the oracle prune its filter.
    working_set_window=st.sampled_from([4, 4096]),
)

#: One event in a parent's life: a batch of candidate sequences with a
#: budget per child id, a RanSub sending-factor update, a join, a new epoch.
events = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(keys, max_size=24),
            st.dictionaries(child_ids, st.integers(min_value=0, max_value=8)),
        ),
        st.tuples(
            st.just("factors"),
            st.dictionaries(child_ids, st.integers(min_value=1, max_value=40)),
        ),
        st.tuples(st.just("add_child"), child_ids),
        st.tuples(st.just("reset_epoch"),),
    ),
    min_size=1,
    max_size=40,
)


def child_counters(sender):
    states = (sender.child_state(child) for child in sender.children)
    return [(s.child, s.sending_factor, s.limiting_factor, s.owned_sent) for s in states]


def oracle_batch(oracle, sequences, budgets):
    left = dict(budgets)

    def transport(child, _sequence):
        if left.get(child, 0) <= 0:
            return False
        left[child] -= 1
        return True

    return oracle.send_batch(sequences, transport)


@settings(max_examples=300, deadline=None)
@given(configs, st.lists(child_ids, unique=True, max_size=5), events)
def test_budget_sender_matches_the_callback_oracle(config, children, run):
    sender = DisjointSender(config, children)
    oracle = CallbackDisjointSender(config, children)
    used = set()
    for event in run:
        kind = event[0]
        if kind == "batch":
            _, candidates, budgets = event
            # Distinct sequences no earlier batch carried, in drawn order.
            sequences = list(dict.fromkeys(s for s in candidates if s not in used))
            used.update(sequences)
            accepted = sender.send_batch(sequences, budgets)
            assert accepted == oracle_batch(oracle, sequences, budgets)
            for child, taken in accepted.items():
                assert len(taken) <= budgets.get(child, 0)
        elif kind == "factors":
            sender.update_sending_factors(event[1])
            oracle.update_sending_factors(event[1])
        elif kind == "add_child":
            sender.add_child(event[1])
            oracle.add_child(event[1])
        else:
            sender.reset_epoch()
            oracle.reset_epoch()
        assert sender.children == oracle.children
        assert child_counters(sender) == child_counters(oracle)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([3, 8, 64]),
    st.lists(
        st.one_of(
            st.tuples(st.just("add_many"), st.lists(keys, max_size=16)),
            st.tuples(st.just("prune_below"), keys),
        ),
        max_size=40,
    ),
)
def test_working_set_returns_a_sequence_as_fresh_at_most_once(window, operations):
    working_set = WorkingSet(prune_window=window)
    returned = []
    for kind, argument in operations:
        if kind == "add_many":
            returned += working_set.add_many(argument)
        else:
            working_set.prune_below(argument)
    assert len(returned) == len(set(returned))
