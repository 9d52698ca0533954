"""The output writers: blocks of CSV rows give the bytes of one row at a
time, and the writer's memory does not grow with the number of rows; blocks
of episodes give the bytes of one json.dump."""

import json
import tracemalloc

import numpy as np
import pytest

from spindeph import cli

B = cli.CSV_BLOCK
SPECIAL = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 1.0 / 3.0,
           -2.2250738585072014e-308, 123456789.01234567, 1.0]


def row_by_row(path, header, columns):
    """The writer before blocks: every whole column as text, then one row at a time."""
    def column_text(column):
        if isinstance(column, list) and column and isinstance(column[0], str):
            return column
        values = np.asarray(column)
        if values.dtype.kind == "b":
            values = values.astype(np.int8)
        return map(repr if values.dtype.kind == "f" else str, values.tolist())

    rows = zip(*map(column_text, columns))
    with open(path, "w", newline="") as fh:
        fh.write(f"# format: {cli.CSV_FORMAT}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def columns(n):
    """One column of each kind the commands write, n rows each."""
    rng = np.random.default_rng(n)
    special = np.resize(np.array(SPECIAL), n)
    noise = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    return {
        "special": special,
        "random": noise,
        "int64": (np.arange(n, dtype=np.int64) - n // 2) * (2**53 + 7),
        "big_int": [2**64 + 3**k for k in range(n)],  # Python ints past int64
        "bool": noise > 0.0,
        "text": [f"{k / 7!r}" for k in range(n)],
        # ints until the last row: the whole column is float, so every row reads "k.0"
        "mixed": [k for k in range(n - 1)] + [0.5] if n else [],
    }


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_blocks_write_the_bytes_of_one_row_at_a_time(tmp_path, n):
    cols = columns(n)
    blocked, reference = tmp_path / "blocked.csv", tmp_path / "reference.csv"
    cli.write_csv(blocked, list(cols), list(cols.values()))
    row_by_row(reference, list(cols), list(cols.values()))
    assert blocked.read_bytes() == reference.read_bytes()
    lines = blocked.read_text().splitlines()
    assert len(lines) == 2 + n
    if n > 2:
        assert lines[3].split(",")[-1] == "1.0"  # the mixed column's format is the whole column's


def test_rows_stop_at_the_shortest_column(tmp_path):
    blocked, reference = tmp_path / "blocked.csv", tmp_path / "reference.csv"
    cols = [np.arange(2 * B + 3, dtype=float), np.arange(B + 1), [True] * (B + 5)]
    cli.write_csv(blocked, ["a", "b", "c"], cols)
    row_by_row(reference, ["a", "b", "c"], cols)
    assert blocked.read_bytes() == reference.read_bytes()
    assert len(blocked.read_text().splitlines()) == 2 + B + 1


def writer_peak(path, rows):
    """tracemalloc's peak while write_csv writes five float columns of `rows` rows."""
    rng = np.random.default_rng(0)
    cols = [rng.normal(size=rows) for _ in range(5)]
    tracemalloc.start()
    try:
        cli.write_csv(path, list("abcde"), cols)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_does_not_grow_with_the_rows(tmp_path):
    small = writer_peak(tmp_path / "small.csv", 10**4)
    large = writer_peak(tmp_path / "large.csv", 10**5)
    assert large - small <= 256 * 1024, (small, large)


E = cli.EPISODE_BLOCK


@pytest.mark.parametrize("n", [0, 1, E - 1, E, E + 1, 2 * E + 3])
def test_episode_blocks_write_the_bytes_of_json_dump(tmp_path, n):
    rng = np.random.default_rng(n)
    noise = rng.normal(size=2 * n) * 10.0 ** rng.integers(-20, 20, size=2 * n)
    ends = np.resize(np.array(SPECIAL), 2 * n) + noise
    episodes = [(float(a), b) for a, b in zip(ends[::2], ends[1::2])]  # Python and numpy floats
    path = tmp_path / "e.json"
    cli.write_episodes(path, episodes)
    assert path.read_text() == json.dumps(episodes)
