"""The brute-force oracles against a hand-built case."""

from collections import namedtuple

from perf.oracle import MapOracle, check_join_sample, join_sample_keys, pair_keys

R = namedtuple("R", "xl yl xu yu")

#   oid 1: unit square at the origin      oid 2: touches 1 at the corner (1,1)
#   oid 3: far away                        oid 4: inside 1
LEFT = [(1, R(0, 0, 1, 1)), (2, R(1, 1, 2, 2)), (3, R(10, 10, 11, 11)), (4, R(0.2, 0.2, 0.4, 0.4))]
RIGHT = [(7, R(0.5, 0.5, 1.5, 1.5)), (8, R(3, 3, 4, 4)), (9, R(10.5, 10.5, 12, 12))]


def test_window_uses_closed_intervals():
    oracle = MapOracle(LEFT)
    assert oracle.window((0.5, 0.5, 0.6, 0.6)) == (1,)
    assert oracle.window((1.0, 1.0, 1.0, 1.0)) == (1, 2)  # corner touch counts
    assert oracle.window((5, 5, 6, 6)) == ()
    assert oracle.window((-1, -1, 20, 20)) == (1, 2, 3, 4)


def test_knn_distances_are_point_to_mbr():
    oracle = MapOracle(LEFT)
    # (0.3, 0.3) lies inside 1 and 4 (distance 0); 2 is sqrt(0.7^2 * 2) away
    assert oracle.knn_distances(0.3, 0.3, 3) == [0.0, 0.0, (0.7 * 0.7 * 2) ** 0.5]
    assert oracle.knn_distances(0.3, 0.3, 10) == sorted(oracle.knn_distances(0.3, 0.3, 4))


def test_check_accepts_right_and_rejects_wrong_answers():
    oracle = MapOracle(LEFT)
    window = ("window", "map1", (0.5, 0.5, 0.6, 0.6))
    assert oracle.check(window, (1,))
    assert not oracle.check(window, (1, 4))
    knn = ("knn", "map1", 0.3, 0.3, 2)
    assert oracle.check(knn, ((0.0, 1), (0.0, 4)))
    assert oracle.check(knn, ((0.0, 4), (0.0, 1)))  # ties may order either way
    assert not oracle.check(knn, ((0.0, 1), (0.5, 2)))


def test_pair_keys_are_the_pair_set_of_any_answer_shape():
    class Result:
        pairs = [(3, 9), (1, 7), (1, 7)]

    class Simulated:
        def pair_set(self):
            return {(1, 7), (3, 9)}

    keys = pair_keys([(1, 7), (3, 9)])
    assert keys.tolist() == [(1 << 32) | 7, (3 << 32) | 9]
    assert pair_keys(Result()).tolist() == keys.tolist()  # order and repeats drop out
    assert pair_keys(Simulated()).tolist() == keys.tolist()
    assert pair_keys([]).tolist() == []


def test_join_sample_against_all_of_the_other_map():
    left, right = MapOracle(LEFT), MapOracle(RIGHT)
    everything = [(1, 7), (2, 7), (3, 9)]
    assert join_sample_keys(left, right, range(4)).tolist() == pair_keys(everything).tolist()
    assert check_join_sample(pair_keys(everything), left, right, [0, 2])
    assert not check_join_sample(pair_keys(everything[1:]), left, right, [0])
    assert not check_join_sample(pair_keys(everything + [(1, 8)]), left, right, [0])
    # a pair outside the sample is not this check's business
    assert check_join_sample(pair_keys(everything[:2]), left, right, [0, 1])
