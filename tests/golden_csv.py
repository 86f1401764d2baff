"""A figure CSV against its committed copy in tests/data.

The header, the line count and the start, N and phi columns must match
exactly, and every other value within 1e-12: the last bits may move with
the BLAS build, or with a fused Trotter step.  Tier-1 compares the default
figures through ``first_difference``; from a shell,

    python tests/golden_csv.py GOT.csv WANT.csv

exits 0 when the files match, and 1 with the first difference on stderr
when they do not.
"""
import sys

EXACT_COLUMNS = ("start", "N", "phi")
TOLERANCE = 1e-12


def first_difference(got: str, want: str) -> str | None:
    """None when the CSV text ``got`` matches ``want``, else a line naming the first difference."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if got_lines[:1] != want_lines[:1] or len(got_lines) != len(want_lines):
        return f"header {got_lines[:1]} and {len(got_lines)} lines, expected {want_lines[:1]} and {len(want_lines)}"
    header = want_lines[0].split(",")
    for number, (got_line, want_line) in enumerate(zip(got_lines[1:], want_lines[1:]), start=2):
        got_fields, want_fields = got_line.split(","), want_line.split(",")
        same = len(got_fields) == len(want_fields) and all(
            got_value == want_value if column in EXACT_COLUMNS else abs(float(got_value) - float(want_value)) <= TOLERANCE
            for column, got_value, want_value in zip(header, got_fields, want_fields)
        )
        if not same:
            return f"line {number}: {got_line} against {want_line}"
    return None


if __name__ == "__main__":
    got, want = (open(path, encoding="utf-8").read() for path in sys.argv[1:3])
    difference = first_difference(got, want)
    if difference is not None:
        print(difference, file=sys.stderr)
    sys.exit(0 if difference is None else 1)
