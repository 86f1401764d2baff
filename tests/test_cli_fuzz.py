"""Property-based fuzzing of the figures, compile, bounds, matter and
covariance commands: every input ends in exit 0 with finite numbers, or in
exit 2 or 3 with exactly one line on stderr."""
import contextlib
import io
import json
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
# text that is no number, for a float option or an integer one
NOT_A_NUMBER = st.sampled_from(["abc", "", "1e", "0x10", "1,2", "--", "1.5"])
WILD_FLOAT = st.one_of(WILD, NOT_A_NUMBER)
# couplings that vanish next to the merge tolerance, or whose energies overflow
EXTREME_J = st.tuples(st.just("J"), st.sampled_from(["1e-300", "-1e-300", "2e-12", "1e160", "1e300"]))
# a wild step count, plaquette count or fractal degree
WILD_COUNT = st.one_of(
    NOT_A_NUMBER, st.sampled_from(["0", "-1", "10001", str(2**31)]), st.integers().map(str)
)
# derandomized and without an example database, so each run tries the same inputs
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# more examples where one wild value among several options has to be drawn
WIDE_FUZZ = settings(FUZZ, max_examples=120)


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
        if out.startswith("{"):  # a JSON report: NaN and Infinity are its only non-finite numbers
            json.loads(out, parse_constant=reject_non_finite)
        else:
            for line in out.splitlines()[1:]:
                assert all(math.isfinite(float(field)) for field in line.split(",")), line


def reject_non_finite(name):
    raise AssertionError(f"the JSON report holds {name}")


def with_wild(options, wild):
    """``options`` as ``--key=value`` flags, with one of them replaced by a wild value."""
    if wild is not None:
        options = {**options, wild[0]: wild[1]}
    return [f"--{key}={value}" for key, value in options.items()]


@WIDE_FUZZ
@given(
    figure=st.sampled_from(["fig3", "fig4", "figS2"]),
    steps=st.lists(st.integers(1, 4), min_size=1, max_size=2).map(lambda counts: ",".join(map(str, counts))),
    phi_start=st.floats(-2, 2),
    coupling=st.one_of(USABLE, st.floats(-1e4, -1e-4).map(repr)),
    two_plaquette=st.booleans(),
    wild=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["J", "phi-start", "phi-stop", "phi-step", "start-sector"]), WILD_FLOAT),
        st.tuples(st.just("steps"), WILD_COUNT),
        EXTREME_J,
    ),
)
def test_figures_fuzz(two_plaquette_path, figure, steps, phi_start, coupling, two_plaquette, wild):
    # three phi points unless a wild value widens the grid
    options = {"J": coupling, "steps": steps, "phi-start": repr(phi_start),
               "phi-stop": repr(phi_start + 0.1), "phi-step": "0.05"}
    layout = ["--layout", str(two_plaquette_path)] if two_plaquette else []
    check_outcome(*run_cli(["figures", figure, *with_wild(options, wild), *layout]))


@WIDE_FUZZ
@given(
    backend=st.sampled_from(["collective", "cphase"]),
    # the whole step, the whole step asked for by --step, or one monomial
    what=st.one_of(
        st.just([]),
        st.just(["--step"]),
        st.lists(st.sampled_from("XYZ"), min_size=1, max_size=6).map(
            lambda letters: ["--monomial=(1.0) " + " ".join(f"{letter}{qubit}" for qubit, letter in enumerate(letters))]
        ),
    ),
    phi=USABLE,
    coupling=USABLE,
    two_plaquette=st.booleans(),
    wild=st.one_of(st.none(), st.tuples(st.sampled_from(["J", "phi"]), WILD_FLOAT), EXTREME_J),
)
def test_compile_fuzz(two_plaquette_path, backend, what, phi, coupling, two_plaquette, wild):
    argv = ["compile", f"--backend={backend}", *what, *with_wild({"phi": phi, "J": coupling}, wild)]
    argv += ["--layout", str(two_plaquette_path)] if two_plaquette else []
    check_outcome(*run_cli(argv))


@WIDE_FUZZ
@given(
    plaquettes=st.integers(1, 3),
    jt=USABLE,
    eps=st.floats(1e-3, 0.5).map(repr),
    k=st.integers(1, 3),
    wild=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["Jt", "eps"]), WILD_FLOAT),
        st.tuples(st.sampled_from(["plaquettes", "k"]), WILD_COUNT),
    ),
)
def test_bounds_fuzz(plaquettes, jt, eps, k, wild):
    check_outcome(*run_cli(["bounds", *with_wild({"plaquettes": plaquettes, "Jt": jt, "eps": eps, "k": k}, wild)]))


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
