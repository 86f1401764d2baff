"""Property-based fuzzing of the matter and covariance commands: every
input ends in exit 0 with finite numbers, or in exit 2 or 3 with exactly one
line on stderr."""
import contextlib
import io
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from su2link import cli

# usable values, and the wild ones that one option at a time may take
# instead: the special values by name and any finite double (subnormal to
# 1.8e308)
USABLE = st.floats(1e-4, 1e4).map(repr)
WILD = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# derandomized and without an example database, so each run tries the same inputs
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process run; any warning fails it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, out, err):
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    else:
        assert err == ""
        for line in out.splitlines()[1:]:
            assert all(math.isfinite(float(field)) for field in line.split(",")), line


@FUZZ
@given(
    sites=st.sampled_from([2, 3, 5]),
    omega=USABLE,
    hopping=USABLE,
    ratios=st.lists(USABLE, min_size=1, max_size=3).map(",".join),
    n0=st.integers(-1, 2),
    matter_number=st.integers(-1, 5),
    wild=st.one_of(st.none(), st.tuples(st.sampled_from(["omega", "hopping", "ratios"]), WILD)),
)
def test_matter_fuzz(sites, omega, hopping, ratios, n0, matter_number, wild):
    options = {"omega": omega, "hopping": hopping, "ratios": ratios, "n0": n0, "matter-number": matter_number}
    if wild is not None:
        options[wild[0]] = wild[1] if wild[0] != "ratios" else f"{ratios},{wild[1]}"
    check_outcome(*run_cli(["matter", f"--sites={sites}", *(f"--{key}={value}" for key, value in options.items())]))


@FUZZ
@given(sets=st.integers(-2, 3), seed=st.integers(-2, 2**70), two_plaquette=st.booleans())
def test_covariance_fuzz(two_plaquette_path, sets, seed, two_plaquette):
    layout = ["--layout", str(two_plaquette_path)] if two_plaquette else []
    check_outcome(*run_cli(["covariance", f"--sets={sets}", f"--seed={seed}", *layout]))
