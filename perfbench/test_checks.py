"""Self-tests: each check of the benchmark accepts a right answer and
bites on a slightly wrong one. Independent of the package.

    python3 -m pytest perfbench/test_checks.py
"""

import math

import checks

ISO_A = math.acos(checks.ISOSCELES_COS_A)
ISO_M = (1.3, 2.2, 0.7)


def isosceles_record():
    """The minor-arc isosceles RE from its closed forms: x = a/2, omega^2
    from the paper, and the lift t1 that zeroes sum(m sin 2 theta)."""
    a, x = ISO_A, ISO_A / 2.0
    offsets = (0.0, a, x)
    s = sum(m * math.sin(2.0 * d) for m, d in zip(ISO_M, offsets))
    c = sum(m * math.cos(2.0 * d) for m, d in zip(ISO_M, offsets))
    w2 = 16.0 * checks.amplitude(ISO_M, a, x) / 7.0 * checks.ISOSCELES_FACTOR
    # the two lifts differ by a quarter turn; one of them is the RE
    lifts = [0.5 * math.atan2(-s, c) + q * math.pi / 2.0 for q in (0, 1)]
    t1 = min(lifts, key=lambda t: checks.rigid_rotation_defect(
        [t + d for d in offsets], w2, ISO_M))
    theta = [t1 + d for d in offsets]
    return {"x": x, "region": "I", "theta": theta,
            "theta_alt": [t + math.pi for t in theta], "omega_squared": w2}


def test_cartesian_check_accepts_the_closed_form_re():
    rec = isosceles_record()
    assert checks.solution_problems(rec, ISO_A, ISO_M) == []
    assert checks.named_case_problems("isosceles", ISO_A, ISO_M, [rec]) == []


def test_cartesian_check_rejects_x_moved_by_1e6():
    rec = isosceles_record()
    for step in (1e-6, -1e-6):
        moved = dict(rec, x=rec["x"] + step)
        moved["theta"] = rec["theta"][:2] + [rec["theta"][2] + step]
        moved["theta_alt"] = [t + math.pi for t in moved["theta"]]
        assert any("no RE" in p for p in
                   checks.solution_problems(moved, ISO_A, ISO_M))


def test_cartesian_check_rejects_a_wrong_rate():
    rec = dict(isosceles_record())
    rec["omega_squared"] *= 1.0 + 1e-6
    assert checks.solution_problems(rec, ISO_A, ISO_M)


def test_isosceles_closed_form_rejects_a_wrong_rate():
    rec = dict(isosceles_record())
    rec["omega_squared"] *= 1.0 + 1e-8
    assert checks.named_case_problems("isosceles", ISO_A, ISO_M, [rec])


def test_mirror_check():
    a = 0.7
    xs = [0.2, 1.9, 4.0]
    mirrored = [(a - x) % checks.TWO_PI for x in xs]
    assert checks.mirror_problems(xs, mirrored, a) == []
    assert checks.mirror_problems(xs, mirrored[:2], a)
    assert checks.mirror_problems(xs, [mirrored[0] + 1e-6] + mirrored[1:], a)


def table2_slice(nus):
    counts = {r: [[0] * len(nus) for _ in nus] for r in ("I", "II", "III", "IV")}
    for i, n1 in enumerate(nus):
        for j, n2 in enumerate(nus):
            for r, c in zip(("I", "II", "III", "IV"), checks.table2_counts(n1 - n2)):
                counts[r][i][j] = c
    return counts


NUS = [0.1 + 9.9 * k / 49 for k in range(50)]


def test_sweep_check_accepts_table2():
    counts = table2_slice(NUS)
    assert checks.sweep_slice_problems(math.pi / 2, NUS, NUS, counts) == []


def test_sweep_check_rejects_one_asymmetric_cell():
    for region in ("I", "III", "II"):
        counts = table2_slice(NUS)
        counts[region][3][17] += 1
        assert checks.sweep_slice_problems(1.0, NUS, NUS, counts)


def test_sweep_check_rejects_an_off_by_one_table2_cell():
    # symmetric change, so only the Table 2 comparison can catch it
    counts = table2_slice(NUS)
    counts["II"][40][2] += 1
    counts["IV"][2][40] += 1
    assert checks.sweep_slice_problems(1.0, NUS, NUS, counts) == []
    problems = checks.sweep_slice_problems(math.pi / 2, NUS, NUS, counts)
    assert problems and "Table 2" in problems[0]


def test_solve_check_rejects_an_off_by_one_table2_count():
    masses = (11.0, 6.0, 1.0)  # nu1 - nu2 = 5: regions (1, 2, 1, 0)
    right = [{"region": r} for r in ("I", "II", "II", "III")]
    assert checks.named_case_problems("table2_+5", math.pi / 2, masses,
                                      right) == []
    for wrong in (right[:-1], right + [{"region": "IV"}],
                  right[:2] + right[3:]):
        assert checks.named_case_problems("table2_+5", math.pi / 2, masses,
                                          wrong)
