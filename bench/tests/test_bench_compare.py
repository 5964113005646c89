from compare import verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]


def test_win_needs_nine_tenths_of_ten_pairs_and_a_gap_beyond_the_iqr():
    faster = [p - 5.0 for p in PARENT]
    assert verdict(PARENT, faster, "lower", 0.1) == ("win", 10)
    # Two losing pairs out of ten: 8/10 is not enough.
    mixed = faster[:8] + [p + 1.0 for p in PARENT[8:]]
    assert verdict(PARENT, mixed, "lower", 0.1) == ("same", 8)
    # Fewer than ten pairs never wins.
    assert verdict(PARENT[:9], faster[:9], "lower", 0.1) == ("same", 9)


def test_gap_inside_the_parents_iqr_is_not_a_win():
    barely = [p - 0.4 for p in PARENT]
    result, wins = verdict(PARENT, barely, "lower", 0.1)
    assert wins == 10 and result == "same"


def test_higher_is_better_metrics_flip_the_sign():
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "higher", 0.1)[0] == "win"
    assert verdict(PARENT, [p * 0.8 for p in PARENT], "higher", 0.1)[0] == "lose"


def test_regression_beyond_the_bound_loses():
    assert verdict(PARENT, [p * 1.15 for p in PARENT], "lower", 0.1)[0] == "lose"
    assert verdict(PARENT, [p * 1.05 for p in PARENT], "lower", 0.1)[0] == "same"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0]
    assert verdict(noisy, [130.0, 70.0, 110.0, 90.0, 100.0], "lower", 0.1)[0] == "unresolved"
    # ...unless every change run beats every parent run.
    assert verdict(noisy, [50.0, 55.0, 52.0, 51.0, 53.0], "lower", 0.1)[0] == "same"
