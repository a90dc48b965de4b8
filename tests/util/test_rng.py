"""Tests for the deterministic RNG utilities."""

from hypothesis import given, strategies as st

from repro.util.rng import SeededRng, spawn_rng


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(42)
        b = SeededRng(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededRng(1)
        b = SeededRng(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_children_are_independent_of_parent_draws(self):
        parent_a = SeededRng(7)
        child_a = parent_a.child("x")
        first = [child_a.random() for _ in range(5)]

        parent_b = SeededRng(7)
        # Consume draws from the parent before spawning the child.
        for _ in range(100):
            parent_b.random()
        child_b = parent_b.child("x")
        second = [child_b.random() for _ in range(5)]
        assert first == second

    def test_named_children_differ(self):
        root = SeededRng(3)
        assert root.child("a").random() != root.child("b").random()

    def test_sample_clamps_to_population(self):
        rng = SeededRng(5)
        population = [1, 2, 3]
        assert sorted(rng.sample(population, 10)) == population

    def test_choice_and_shuffle_are_deterministic(self):
        a, b = SeededRng(9), SeededRng(9)
        items_a, items_b = list(range(20)), list(range(20))
        a.shuffle(items_a)
        b.shuffle(items_b)
        assert items_a == items_b
        assert a.choice(items_a) == b.choice(items_b)

    def test_weighted_choice_respects_zero_weightless_items(self):
        rng = SeededRng(11)
        picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    def test_spawn_rng_walks_path(self):
        direct = SeededRng(21).child("a").child("b").random()
        walked = spawn_rng(21, "a", "b").random()
        assert direct == walked

    @given(st.integers(min_value=0, max_value=10**9))
    def test_uniform_within_bounds(self, seed):
        rng = SeededRng(seed)
        value = rng.uniform(10.0, 20.0)
        assert 10.0 <= value <= 20.0

    def test_permutation_preserves_elements(self):
        rng = SeededRng(17)
        items = list(range(30))
        assert sorted(rng.permutation(items)) == items
