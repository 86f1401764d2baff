"""Property-based fuzzing of the figures, compile, bounds, matter and
covariance commands, and of layout files: every input ends in exit 0 with
finite numbers, or in exit 2 or 3 with exactly one line on stderr."""
import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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
# monomial coefficients at and below the Pauli merge tolerance, and huge ones,
# and huge phis: a product of the two can overflow a gate angle
EXTREME_COEFFICIENT = st.sampled_from(["1e-300", "-1e-300", "2e-12", "1e160", "1e300"])
HUGE_PHI = st.sampled_from(["1e10", "-1e160", "1e300"])
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
            header, *lines = out.splitlines()
            columns = header.split(",")
            for line in lines:
                fields = line.split(",")
                assert len(fields) == len(columns), line
                # covariance's link column holds the layout's link ids, which are names
                assert all(math.isfinite(float(f)) for c, f in zip(columns, fields) if c != "link"), line


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
    two_plaquette=st.booleans(),
    wild=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["phi-start", "phi-stop", "phi-step", "start-sector"]), WILD_FLOAT),
        st.tuples(st.just("steps"), WILD_COUNT),
    ),
)
def test_figures_fuzz(two_plaquette_path, figure, steps, phi_start, two_plaquette, wild):
    # three phi points unless a wild value widens the grid
    options = {"steps": steps, "phi-start": repr(phi_start), "phi-stop": repr(phi_start + 0.1), "phi-step": "0.05"}
    layout = ["--layout", str(two_plaquette_path)] if two_plaquette else []
    check_outcome(*run_cli(["figures", figure, *with_wild(options, wild), *layout]))


@WIDE_FUZZ
@given(
    backend=st.sampled_from(["collective", "cphase"]),
    # the whole step, on the triangle or the two-plaquette layout, the whole step
    # asked for by --step, or one monomial, which takes no layout
    what=st.one_of(
        st.just([]),
        st.just(["--step"]),
        st.just(["--layout", "two_plaquette"]),
        st.builds(
            lambda coefficient, letters: [
                f"--monomial=({coefficient}) " + " ".join(f"{letter}{qubit}" for qubit, letter in enumerate(letters))
            ],
            st.one_of(USABLE, EXTREME_COEFFICIENT),
            st.lists(st.sampled_from("XYZ"), min_size=1, max_size=6),
        ),
    ),
    phi=st.one_of(USABLE, HUGE_PHI),
    wild=st.one_of(st.none(), st.tuples(st.just("phi"), WILD_FLOAT)),
)
# an overflowing gate angle on each backend, which the draws above seldom pair
@example(backend="collective", what=["--monomial=(1e300) X0 X1"], phi="1e10", wild=None)
@example(backend="cphase", what=["--monomial=(1e160) Y0"], phi="-1e160", wild=None)
def test_compile_fuzz(two_plaquette_path, backend, what, phi, wild):
    what = [str(two_plaquette_path) if option == "two_plaquette" else option for option in what]
    check_outcome(*run_cli(["compile", f"--backend={backend}", *what, *with_wild({"phi": phi}, wild)]))


# names in one directory: link.json is a symbolic link to report.json
OUTPUT_NAMES = ["report.json", "./report.json", "link.json", "gates.txt", "./gates.txt"]


@FUZZ
@given(out=st.sampled_from(OUTPUT_NAMES), circuit_out=st.sampled_from(OUTPUT_NAMES), existing=st.booleans())
def test_compile_output_paths_fuzz(out, circuit_out, existing):
    # two paths that name one file are refused before either is written; otherwise
    # the gate list and the report each keep their own file
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "link.json").symlink_to(root / "report.json")
        if existing:
            (root / "report.json").write_text("old\n", encoding="utf-8")
            (root / "gates.txt").write_text("old\n", encoding="utf-8")
        paths = [f"{directory}/{name}" for name in (out, circuit_out)]
        code, stdout, err = run_cli(["compile", "--step", "--backend=cphase", "--out", paths[0], "--circuit-out", paths[1]])
        if os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
            assert code == 2
            assert err == f"error: --out and --circuit-out name one file: {paths[1]!r}\n"
            assert [Path(p).exists() and Path(p).read_text(encoding="utf-8") for p in paths] == [existing and "old\n"] * 2
        else:
            assert (code, stdout, err) == (0, "", "")
            report, gates = (Path(p).read_text(encoding="utf-8") for p in paths)
            assert json.loads(report)["backend"] == "cphase"
            assert gates.startswith("qubits 7\n")


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


STRIP3_LINES = [
    line
    for line in (Path(__file__).parent / "data" / "strip3.layout").read_text(encoding="utf-8").splitlines()
    if line and not line.startswith("#")
]
MUTATIONS = ["duplicate", "drop", "swap", "shift", "reuse", "reverse", "self-loop", "comma", "junk"]


@st.composite
def mutated_layouts(draw):
    """The lines of tests/data/strip3.layout after one or two mutations: a
    line duplicated, dropped or swapped with another; a link's qubit shifted
    or set to another link's; a link reversed or made a self-loop; a comma
    put in a link's id; or a junk line inserted."""
    lines = list(STRIP3_LINES)
    for _ in range(draw(st.integers(1, 2))):
        mutation = draw(st.sampled_from(MUTATIONS))
        index = draw(st.integers(0, len(lines) - 1))
        if mutation == "duplicate":
            lines.insert(index, lines[index])
        elif mutation == "drop":
            del lines[index]
        elif mutation == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[index], lines[other] = lines[other], lines[index]
        elif mutation == "junk":
            lines.insert(index, draw(st.sampled_from(["link", "plaquette a b", "zzz"])))
        else:
            links = [i for i, line in enumerate(lines) if line.startswith("link ") and len(line.split()) == 6]
            index = draw(st.sampled_from(links))
            words = lines[index].split()  # link <id> <from> <to> <position qubit> <spin qubit>
            if mutation == "shift":
                slot = draw(st.sampled_from([4, 5]))
                words[slot] = str(int(words[slot]) + draw(st.sampled_from([-14, -1, 1, 2, 1000])))
            elif mutation == "reuse":
                other = lines[draw(st.sampled_from(links))].split()
                slot = draw(st.sampled_from([4, 5]))
                words[slot] = other[draw(st.sampled_from([4, 5]))]
            elif mutation == "reverse":
                words[2], words[3] = words[3], words[2]
            elif mutation == "comma":
                words[1] += ",x"
            else:
                words[3] = words[2]
            lines[index] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzzed_layout_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed") / "mutated.layout"


@settings(FUZZ, max_examples=100)
@given(layout=mutated_layouts())
def test_layout_file_fuzz(fuzzed_layout_path, layout):
    fuzzed_layout_path.write_text(layout, encoding="utf-8")
    for argv in (
        ["sectors"],
        ["figures", "fig3", "--steps=1", "--phi-stop=0.1"],
        ["covariance", "--sets=1"],
        ["compile", "--backend=cphase"],
    ):
        check_outcome(*run_cli([*argv, "--layout", str(fuzzed_layout_path)]))
