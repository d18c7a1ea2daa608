"""The seed reaches the inputs, and the same seed gives the same inputs."""

from perf.inputs import RequestStream, poisson_schedule, probe_windows


def test_same_seed_same_stream_other_seed_other_stream():
    one = RequestStream(1000.0, 5).batch("open", 500)
    assert one == RequestStream(1000.0, 5).batch("open", 500)
    assert one != RequestStream(1000.0, 6).batch("open", 500)
    assert one != RequestStream(1000.0, 5).batch("closed:0", 500)


def test_mix_shape():
    stream = RequestStream(1000.0, 11)
    requests = stream.batch("open", 20000)
    knn = [r for r in requests if r[0] == "knn"]
    windows = [r for r in requests if r[0] == "window"]
    assert 0.08 < len(knn) / len(requests) < 0.12
    assert all(1 <= r[4] <= 20 for r in knn)
    hot = sum(r[2] in set(stream.hot_windows) for r in windows)
    assert 0.22 < hot / len(windows) < 0.28
    for _kind, tree, (xl, yl, xu, yu) in windows:
        assert tree in ("map1", "map2")
        assert 0.0 <= xl < xu <= 1000.0 and 0.0 <= yl < yu <= 1000.0
        assert 19.99 <= xu - xl <= 100.01


def test_poisson_schedule_rate_and_order():
    due = poisson_schedule(3, "open", 600.0, 10.0)
    assert due == sorted(due) and due[-1] < 10.0
    assert 5600 < len(due) < 6400
    assert due == poisson_schedule(3, "open", 600.0, 10.0)


def test_probe_windows_are_seeded():
    assert probe_windows(100.0, 1) == probe_windows(100.0, 1)
    assert probe_windows(100.0, 1) != probe_windows(100.0, 2)
    assert len(probe_windows(100.0, 1)) == 800


def test_screen_replaces_a_window_and_leaves_the_rest_in_place():
    plain = RequestStream(1000.0, 5).batch("open", 2000)

    def left_half_only(tree, window):
        return window[0] < 500.0

    stream = RequestStream(1000.0, 5, left_half_only)
    screened = stream.batch("open", 2000)
    assert all(r[2][0] < 500.0 for r in screened if r[0] == "window")
    assert all(w[0] < 500.0 for w in stream.hot_windows)
    hot = set(RequestStream(1000.0, 5).hot_windows)
    changed = 0
    for before, after in zip(plain, screened):
        if before[0] == "window" and before[2] not in hot and before[2][0] < 500.0:
            assert after == before  # an accepted cold window stays put
        elif before[0] == "knn":
            assert after == before
        else:
            changed += after != before
    assert 0 < changed and 0 < stream.redrawn
    assert screened == RequestStream(1000.0, 5, left_half_only).batch("open", 2000)
