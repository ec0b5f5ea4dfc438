import numpy as np
import pytest

from conftest import PENTAGRAM, complete, cycle, empty, path, permuted_copy, random_graph
from qgiso.games import (
    Rel,
    bcs_game_predicate,
    bcs_game_wins,
    iso_game_predicate,
    iso_game_wins,
    rel,
    split_token,
)
from qgiso.bcs import LinBCS, magic_square, satisfying_assignments
from qgiso.graphs import GraphError, complement, disjoint_union, find_isomorphism


class TestRel:
    def test_equal(self):
        assert rel(complete(3), 0, 0) is Rel.EQUAL

    def test_adjacent(self):
        assert rel(complete(3), 0, 1) is Rel.ADJACENT

    def test_distinct_nonadjacent(self):
        g, _, _ = disjoint_union(complete(3), empty(1))
        assert rel(g, 0, 3) is Rel.DISTINCT_NONADJACENT

    def test_symmetric(self, rng):
        g = random_graph(6, 0.5, rng)
        for i in range(6):
            for j in range(6):
                assert rel(g, i, j) == rel(g, j, i)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            rel(complete(3), 0, 5)


class TestIsoGamePredicate:
    def test_actual_isomorphism_wins_everywhere(self, rng):
        g = random_graph(5, 0.5, rng)
        h = permuted_copy(g, rng)
        phi = find_isomorphism(g, h)
        n = g.n
        for a in range(n):
            for b in range(n):
                assert iso_game_predicate(g, h, a, b, phi(a) + n, phi(b) + n)

    def test_same_question_different_answers_lose(self):
        g, h = cycle(4), cycle(4)
        assert not iso_game_predicate(g, h, 0, 0, 4, 5)

    def test_wrong_graph_answer_loses(self):
        g, h = cycle(4), cycle(4)
        assert not iso_game_predicate(g, h, 0, 1, 2, 5)

    def test_synchronous_consistency(self):
        g, h = cycle(4), cycle(4)
        n = g.n
        for x in range(2 * n):
            for y in range(2 * n):
                expected = (x < n) != (y < n)
                assert iso_game_predicate(g, h, x, x, y, y) == expected

    def test_swap_symmetry(self, rng):
        g = random_graph(5, 0.5, rng)
        h = random_graph(5, 0.5, rng)
        n = g.n

        def swap(t):
            return t + n if t < n else t - n

        for _ in range(200):
            xa, xb, ya, yb = (rng.randrange(2 * n) for _ in range(4))
            assert iso_game_predicate(g, h, xa, xb, ya, yb) == iso_game_predicate(
                h, g, swap(xa), swap(xb), swap(ya), swap(yb)
            )

    def test_complement_symmetry(self, rng):
        g = random_graph(5, 0.5, rng)
        h = random_graph(5, 0.5, rng)
        gc, hc = complement(g), complement(h)
        for _ in range(200):
            xa, xb, ya, yb = (rng.randrange(10) for _ in range(4))
            assert iso_game_predicate(g, h, xa, xb, ya, yb) == iso_game_predicate(
                gc, hc, xa, xb, ya, yb
            )

    def test_split_token_out_of_range(self):
        with pytest.raises(GraphError):
            split_token(cycle(3), cycle(3), 6)


class TestIsoGameWins:
    def test_matches_scalar_predicate_on_every_tuple(self, rng):
        pairs = [(cycle(4), path(4)), (path(3), complete(3)), (complete(2), path(3)),
                 (random_graph(4, 0.5, rng), random_graph(4, 0.5, rng))]
        for g, h in pairs:
            N = g.n + h.n
            x_a, x_b, y_a, y_b = np.indices((N,) * 4).reshape(4, -1)
            wins = iso_game_wins(g, h, x_a, x_b, y_a, y_b)
            expected = [iso_game_predicate(g, h, *map(int, t)) for t in zip(x_a, x_b, y_a, y_b)]
            assert wins.tolist() == expected

    @pytest.mark.parametrize("token", [-1, 6])
    def test_token_out_of_range(self, token):
        with pytest.raises(GraphError):
            iso_game_wins(cycle(3), cycle(3), [0], [token], [3], [3])


class TestBcsGamePredicate:
    def test_same_constraint_same_answer(self):
        bcs = magic_square()
        f = {0: 0, 1: 0, 2: 0}
        assert bcs_game_predicate(bcs, 0, 0, f, dict(f))

    def test_row1_vs_col1_disagree_on_shared_variable(self):
        bcs = magic_square()
        f_a = {0: 0, 1: 0, 2: 0}  # row 1 satisfied
        f_b = {0: 1, 3: 1, 6: 0}  # column 1 satisfied but disagrees on x1
        assert not bcs_game_predicate(bcs, 0, 3, f_a, f_b)

    def test_unsatisfying_answer_loses(self):
        bcs = magic_square()
        f_a = {0: 1, 1: 0, 2: 0}  # parity 1, constraint wants 0
        f_b = {3: 0, 4: 0, 5: 0}
        assert not bcs_game_predicate(bcs, 0, 1, f_a, f_b)

    def test_disjoint_supports_only_need_satisfaction(self):
        bcs = magic_square()
        for f_a in satisfying_assignments((0, 1, 2), 0):
            for f_b in satisfying_assignments((3, 4, 5), 0):
                assert bcs_game_predicate(bcs, 0, 1, f_a, f_b)

    def test_domain_mismatch(self):
        bcs = magic_square()
        with pytest.raises(ValueError):
            bcs_game_predicate(bcs, 0, 0, {0: 0}, {0: 0})


def _random_system(rng, n=7, m=5):
    return LinBCS(n, tuple((tuple(rng.sample(range(n), rng.randint(1, 4))), rng.randint(0, 1))
                           for _ in range(m)))


class TestBcsGameWins:
    @pytest.mark.parametrize("system", ["magic square", "pentagram", "random"])
    def test_matches_scalar_predicate_on_every_pair(self, system, rng):
        bcs = {"magic square": magic_square, "pentagram": lambda: PENTAGRAM,
               "random": lambda: _random_system(rng)}[system]()
        # every assignment of every support, so unsatisfying ones take part too
        meta = [(l, f) for l, (s, _) in enumerate(bcs.constraints)
                for b in (0, 1) for f in satisfying_assignments(s, b)]
        wins = bcs_game_wins(bcs, meta)
        expected = [[bcs_game_predicate(bcs, l_a, l_b, f_a, f_b) for l_b, f_b in meta]
                    for l_a, f_a in meta]
        assert wins.tolist() == expected

    @pytest.mark.parametrize("f", [{0: 0}, {0: 0, 1: 0, 2: 0, 3: 0}, {0: 2, 1: 0, 2: 0}])
    def test_malformed_assignment(self, f):
        with pytest.raises(ValueError):
            bcs_game_wins(magic_square(), [(0, {0: 0, 1: 0, 2: 0}), (0, f)])
