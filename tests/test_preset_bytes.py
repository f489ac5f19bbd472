"""The comparison that gates a change on the bytes its presets write."""

from preset_bytes import compare, parse

BASE = """\
fig2a/entropy.csv aaa
fig2a/summary.json bbb
fig2a exit 0
sm-s1/summary.json ccc
sm-s1 exit 0
old exit 0
""".splitlines()


def head(*lines):
    return [*BASE[:5], *lines]


def test_parse_reads_exits_and_hashes():
    exits, files = parse(BASE)
    assert exits == {"fig2a": 0, "sm-s1": 0, "old": 0}
    assert files == {"fig2a": {"entropy.csv": "aaa", "summary.json": "bbb"},
                     "sm-s1": {"summary.json": "ccc"}}


def test_same_bytes_pass_and_a_removed_preset_is_listed():
    ok, report = compare(BASE, head())
    assert ok
    assert "old only at the base: not compared" in report
    assert report[-1] == "2 presets wrote the base's bytes"


def test_an_added_preset_is_listed_not_compared():
    ok, report = compare(BASE, head("new/summary.json ddd", "new exit 0"))
    assert ok
    assert "new only at the head: not compared" in report


def test_a_moved_byte_fails_unless_expected():
    moved = [line.replace("aaa", "xxx") for line in head()]
    ok, report = compare(BASE, moved)
    assert not ok
    assert "fig2a/entropy.csv aaa -> xxx" in report
    ok, report = compare(BASE, moved, expect_changes=True)
    assert ok
    assert "fig2a/entropy.csv aaa -> xxx" in report
    assert "1 presets changed their outputs, as expected" in report


def test_a_missing_or_added_file_fails():
    ok, report = compare(BASE, [line for line in head() if "entropy" not in line])
    assert not ok
    assert "fig2a/entropy.csv aaa -> -" in report
    ok, report = compare(BASE, ["fig2a/extra.csv eee", *head()])
    assert not ok
    assert "fig2a/extra.csv - -> eee" in report


def test_a_failing_head_fails_even_when_the_base_fails_too():
    failing = [line.replace("sm-s1 exit 0", "sm-s1 exit 1") for line in head()]
    for base in (BASE, failing):
        for expect_changes in (False, True):
            ok, report = compare(base, failing, expect_changes)
            assert not ok
            assert "sm-s1 exits 1 at the head" in report


def test_a_preset_mended_at_the_head_is_not_compared():
    broken = [line.replace("sm-s1 exit 0", "sm-s1 exit 1") for line in BASE]
    ok, report = compare(broken, head())
    assert ok
    assert "sm-s1 exits 1 at the base: not compared" in report
