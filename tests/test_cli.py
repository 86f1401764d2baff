import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from su2link import cli, errors
from su2link import compiler as cp
from su2link import dynamics as dyn
from su2link import linkmodel as lm
from su2link.pauli import dense, matvec, span

from golden_csv import first_difference

TRIANGLE_PATH = Path(__file__).parent / "data" / "triangle.layout"  # README's layout file
# strips of three, four and five triangles, each sharing one link with the
# next: 14, 18 and 22 qubits
STRIP3_PATH = Path(__file__).parent / "data" / "strip3.layout"
STRIP4_PATH = Path(__file__).parent / "data" / "strip4.layout"
STRIP5_PATH = Path(__file__).parent / "data" / "strip5.layout"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sectors_table(capsys):
    code, out, _ = run(["sectors"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "eigenvalue,degeneracy",
        "0.75,12",
        "2.25,16",
        "2.75,36",
    ]


def test_sectors_layout_file_round_trip(capsys):
    code, out, _ = run(["sectors", "--layout", str(TRIANGLE_PATH)], capsys)
    assert code == 0
    assert "0.75,12" in out


def test_sectors_malformed_layout_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.layout"
    path.write_text("link oops\n", encoding="utf-8")
    code, _, err = run(["sectors", "--layout", str(path)], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "option, argv",
    [("--layout", ["sectors", "--layout"]), ("--config", ["bounds", "--config"])],
)
def test_an_input_file_is_read_up_to_its_limit(option, argv, tmp_path, capsys):
    assert cli.INPUT_FILE_LIMIT == 1_048_576
    text = TRIANGLE_PATH.read_text(encoding="utf-8") if option == "--layout" else "eps=0.01\n"
    padding = cli.INPUT_FILE_LIMIT - len(text) - 1
    path = tmp_path / "input"
    # at the limit the file is read whole; a comment line pads it out
    path.write_text(text + "#" + "a" * padding, encoding="utf-8")
    code, out, err = run([*argv, str(path)], capsys)
    assert code == 0 and err == "" and out
    path.write_text(text + "#" + "a" * (padding + 1), encoding="utf-8")
    assert run([*argv, str(path)], capsys) == (2, "", f"error: {option} file is longer than 1048576 characters\n")
    # the limit counts characters, not bytes
    path.write_text("#" + "\u00e9" * cli.INPUT_FILE_LIMIT, encoding="utf-8")
    assert run([*argv, str(path)], capsys) == (2, "", f"error: {option} file is longer than 1048576 characters\n")


def test_sectors_dimension_guard_exits_3(huge_index_path, capsys):
    code, out, err = run(["sectors", "--layout", str(huge_index_path)], capsys)
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "numerical guard: sector table on 5000000001 qubits needs an estimated inf bytes, "
        "over the memory budget of 1073741824 bytes"
    ]


def test_strip3_sectors_count_the_register(capsys):
    code, out, err = run(["sectors", "--layout", str(STRIP3_PATH)], capsys)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert sum(int(degeneracy) for _, degeneracy in rows) == 2**14
    layout = cli._load_layout(str(STRIP3_PATH))
    table = lm.gauge_sectors(layout)
    apply_casimir = matvec(lm.total_gauge_casimir(layout), layout.n_qubits)
    for sector in table.sectors:
        state = lm.canonical_sector_state(table, sector.eigenvalue)
        assert np.linalg.norm(apply_casimir(state) - sector.eigenvalue * state) < 1e-10


def test_strip3_fig3_matches_per_point_loop(per_point_sweep, capsys):
    argv = ["figures", "fig3", "--steps", "1,2", "--phi-stop", "0.1", "--layout", str(STRIP3_PATH)]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    rows = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[1:]])
    expected = per_point_sweep(cli._load_layout(str(STRIP3_PATH)), (1, 2), [0.05, 0.1], 0.75)
    expected = np.array([
        [r.steps, r.phi, (r.gauge_ideal - r.gauge_digital) / r.gauge_ideal, r.overlap_initial, r.fidelity] for r in expected
    ])
    assert rows.shape == expected.shape == (4, 5)
    assert np.max(np.abs(rows - expected)) < 1e-12


def test_repeated_runs_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["figures", "fig3", "--steps", "1,2", "--phi-stop", "0.3", "--out"]
    assert cli.main(argv + [str(out_a)]) == 0
    assert cli.main(argv + [str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fig3_deviation_trend(capsys):
    code, out, _ = run(
        ["figures", "fig3", "--steps", "1,4", "--phi-start", "0.5", "--phi-stop", "0.5"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    by_steps = {int(r[0]): abs(float(r[2])) for r in rows}
    assert by_steps[4] < by_steps[1]


def test_figs2_convergence(capsys):
    code, out, _ = run(
        [
            "figures",
            "figS2",
            "--steps",
            "64",
            "--phi-start",
            "2.0",
            "--phi-stop",
            "2.0",
            "--start-sector",
            "0.75",
        ],
        capsys,
    )
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("start,N,phi,gauge_I,gauge_D")
    gauge_d = float(row.split(",")[4])
    assert abs(gauge_d - 0.75) < 1e-2


def test_fig4_caps_decrease_with_steps(capsys):
    code, out, _ = run(
        ["figures", "fig4", "--steps", "2,3", "--phi-start", "0.4", "--phi-stop", "0.4"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    caps = {int(r[0]): float(r[4]) for r in rows}
    assert caps[3] < caps[2]
    fidelities = {int(r[0]): float(r[3]) for r in rows}
    assert fidelities[3] > fidelities[2]


def test_compile_step_reports(capsys):
    code, out, _ = run(["compile", "--backend", "collective", "--step"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["collective"] == 32
    assert report["single"] <= report["single_bound"] == 184
    assert report["schema"] == 1

    code, out, _ = run(["compile", "--backend", "cphase", "--step"], capsys)
    report = json.loads(out)
    assert report["cphase"] == 168
    assert report["single"] <= report["single_bound"] == 520


def test_compile_single_monomial(tmp_path, capsys):
    circuit_path = tmp_path / "gates.txt"
    code, out, _ = run(
        [
            "compile",
            "--backend",
            "collective",
            "--monomial",
            "(1.0) X0 Y1",
            "--phi",
            "0.2",
            "--circuit-out",
            str(circuit_path),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["collective"] == 2
    text = circuit_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "qubits 2"
    assert sum(line.startswith("coll ") for line in text.splitlines()) == 2


@pytest.mark.parametrize("backend", ["collective", "cphase"])
def test_compile_identity_monomial_is_a_global_phase(backend, tmp_path, capsys):
    circuit_path = tmp_path / "gates.txt"
    argv = ["compile", "--backend", backend, "--monomial", "(1.0)", "--circuit-out", str(circuit_path)]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert (report["collective"], report["cphase"], report["single"]) == (0, 0, 0)
    assert circuit_path.read_text(encoding="utf-8") == "qubits 1\n"


def test_compile_rejects_conflicting_inputs(capsys):
    code, _, err = run(
        ["compile", "--backend", "collective", "--step", "--monomial", "(1.0) X0 X1"],
        capsys,
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_bounds_printed_constant(capsys):
    code, out, _ = run(["bounds", "--plaquettes", "1", "--Jt", "1", "--eps", "0.1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert round(report["steps_printed_constant_raw"]) == 7273
    assert report["steps_printed_constant"] == 7274
    assert report["steps_generic"] < report["steps_printed_constant"]
    assert report["schema"] == 1


def test_matter_sweep_csv(capsys):
    code, out, _ = run(["matter", "--ratios", "0.01,0.001"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ratio,deviation,density_norm"
    first, second = (float(line.split(",")[1]) for line in lines[1:])
    assert second < first


def test_matter_guard_exits_3(capsys):
    # ratio 0.5 puts the penalty at twice the mode frequency: pair processes
    # become resonant with the penalty-free subspace
    code, _, err = run(["matter", "--ratios", "0.5"], capsys)
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize(
    "option, message",
    [
        ("--ratios=1e-13", "ratio 1e-13 is too small"),  # the density terms fall under MERGE_TOL
        ("--ratios=0.1,3e-12", "ratio 3e-12 is too small"),  # the hopping terms do
        ("--hopping=1e-13", "hopping 1e-13 is too small"),  # the terms of V do
    ],
)
def test_matter_refuses_terms_that_merge_away(option, message, capsys):
    code, out, err = run(["matter", option], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical guard: ") and err.count("\n") == 1
    assert message in err


def test_covariance_report(capsys):
    code, out, _ = run(["covariance", "--sets", "2", "--seed", "7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "set,link,max_deviation"
    assert len(lines) == 1 + 2 * 3
    assert all(float(line.split(",")[2]) < 1e-9 for line in lines[1:])


def test_covariance_builds_no_matrix_larger_than_4x4(monkeypatch, two_plaquette_path, capsys):
    dense_qubits, exponentiated, diagonalised = [], [], []
    original_dense, original_expi, original_eigh = lm.dense, lm.expi_hermitian, np.linalg.eigh

    def recording_dense(op, n_qubits):
        dense_qubits.append(n_qubits)
        return original_dense(op, n_qubits)

    def recording_expi(matrix, scale=1.0):
        exponentiated.append(len(matrix))
        return original_expi(matrix, scale)

    def recording_eigh(matrix, *args, **kwargs):
        diagonalised.append(len(matrix))
        return original_eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(lm, "dense", recording_dense)
    monkeypatch.setattr(lm, "expi_hermitian", recording_expi)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    code, out, _ = run(["covariance", "--sets", "3", "--layout", str(two_plaquette_path)], capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 3 * 5
    assert max(dense_qubits) == 2
    assert exponentiated.count(4) == 3 * 5  # one link transformation per set and link
    assert max(exponentiated) == 4 and max(diagonalised) == 4


def test_covariance_runs_on_a_three_triangle_strip(capsys):
    code, out, err = run(["covariance", "--sets", "2", "--layout", str(STRIP3_PATH)], capsys)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[1] for row in rows] == ["12", "23", "31", "34", "42", "45", "53"] * 2
    assert all(float(row[2]) < 1e-12 for row in rows)


def run_under_3gb(argv):
    """The CLI in a subprocess under a 3 GB address-space cap."""
    return run_capped(argv, 3_000_000_000)


def run_capped(argv, cap):
    """The CLI in a subprocess that caps its own address space at ``cap`` bytes."""
    resource = pytest.importorskip("resource")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = cap if hard == resource.RLIM_INFINITY else min(cap, hard)

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "su2link.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )


@pytest.mark.parametrize(
    "option, argv",
    [("--layout", ["sectors", "--layout"]), ("--config", ["compile", "--backend", "cphase", "--config"])],
)
def test_an_endless_input_file_exits_2_under_a_1gb_cap(option, argv):
    # the bound read keeps /dev/zero to 1 MiB; a read without it ends in a MemoryError at the cap
    if not Path("/dev/zero").exists():
        pytest.skip("no /dev/zero")
    result = run_capped([*argv, "/dev/zero"], 1_000_000_000)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.splitlines() == [f"error: {option} file is longer than 1048576 characters"]


def test_matter_five_sites_exits_3_before_allocating():
    # 26 modes: the budget must answer before any 2^26 index array is built
    result = run_under_3gb(["matter", "--sites", "5"])
    assert result.returncode == 3
    assert result.stderr.splitlines() == [
        "numerical guard: matter chain of 26 modes needs an estimated 2214592512 bytes, "
        "over the memory budget of 1073741824 bytes"
    ]


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["sectors"], "sector table"),
        (["figures", "fig3"], "sweep"),
        (["figures", "fig4"], "sweep"),
        (["figures", "figS2"], "sweep"),
        (["covariance", "--sets", "1"], None),
        (["compile", "--backend", "collective"], None),
        (["compile", "--backend", "cphase"], None),
    ],
)
def test_huge_qubit_index_is_refused_only_where_a_register_is_built(huge_index_path, argv, refusal):
    # no float holds the size of a 5e9-qubit register; covariance and compile build none
    start = time.perf_counter()
    result = run_under_3gb([*argv, "--layout", str(huge_index_path)])
    assert time.perf_counter() - start < 20
    if refusal is None:
        assert result.returncode == 0 and result.stderr == "" and result.stdout
    else:
        assert result.returncode == 3 and result.stdout == ""
        # a sweep counts the 53 X masks of H and the Casimir, 625 MB each, before span builds one
        estimate = {"sector table": "inf", "sweep": "33125000007"}[refusal]
        assert result.stderr.splitlines() == [
            f"numerical guard: {refusal} on 5000000001 qubits needs an estimated {estimate} bytes, "
            "over the memory budget of 1073741824 bytes"
        ]


def test_sweep_on_101_qubits_is_refused_by_its_sector_table(tmp_path, capsys):
    # the sweep's masks and cosets fit, but its rows would not fit in int64
    path = tmp_path / "index100.layout"
    path.write_text("link 12 1 2 0 1\nlink 23 2 3 2 3\nlink 31 3 1 4 100\nplaquette 12 23 31\n", encoding="utf-8")
    code, out, err = run(["figures", "fig3", "--layout", str(path)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("numerical guard: sector table on 101 qubits needs an estimated ")


def test_five_triangle_strip_fig3_exits_3_before_allocating():
    # 22 qubits: the Lanczos block on a start's 2^15 rows alone could take 51.5 GB
    start = time.perf_counter()
    result = run_under_3gb(["figures", "fig3", "--layout", str(STRIP5_PATH)])
    assert time.perf_counter() - start < 20
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr.splitlines() == [
        "numerical guard: sweep on 22 qubits needs an estimated 51624542208 bytes, "
        "over the memory budget of 1073741824 bytes"
    ]


def test_four_triangle_strip_fig3_fits_the_budget():
    # 18 qubits: each start keeps to 2^12 of the 2^18 basis states
    layout = cli._load_layout(str(STRIP4_PATH))
    hamiltonian = lm.plaquette_hamiltonian(layout, 1.0)
    assert len(span([hamiltonian])) == 12
    phis = cli._phi_grid(0.05, 2.0, 0.05)
    casimir = lm.total_gauge_casimir(layout)
    assert span([hamiltonian, casimir]) == span([hamiltonian])  # the Casimir's masks lie in H's span
    estimate = dyn._sweep_bytes(12, hamiltonian, casimir, len(phis), [4, 3, 2, 1], 1)
    assert 0.8e9 < estimate < 0.9e9 < errors.MEMORY_BUDGET
    # default figS2, seven step counts: the second start adds its ideal states; its batch
    # rows, flipped copies and angles stay below the Lanczos stage, which is the larger one here
    figs2_steps = [64, 32, 16, 8, 4, 2, 1]  # none fuses on 2^12 coset rows
    two_starts = dyn._sweep_bytes(12, hamiltonian, casimir, len(phis), figs2_steps, 2)
    second_start = 2**12 * 16 * len(phis)
    assert two_starts - dyn._sweep_bytes(12, hamiltonian, casimir, len(phis), figs2_steps, 1) == second_start
    assert two_starts < 0.98e9


@pytest.mark.parametrize("figure", sorted(cli._FIGURES))
def test_four_triangle_strip_default_figures_fit_the_budget(figure):
    # the estimates count the larger stage, here the Lanczos stage's 48d^2 bytes for d = 2^12 coset rows
    layout = cli._load_layout(str(STRIP4_PATH))
    grid, steps, starts = cli._FIGURES[figure]
    hamiltonian, casimir = lm.plaquette_hamiltonian(layout, 1.0), lm.total_gauge_casimir(layout)
    estimate = dyn._sweep_bytes(12, hamiltonian, casimir, len(cli._phi_grid(*grid)), sorted(set(steps)), len(starts))
    assert 48 * 4**12 < estimate < 0.83e9 < errors.MEMORY_BUDGET


@pytest.mark.parametrize("name", ["bowtie", "dangling_link"])
def test_zero_sector_is_refused_only_where_e_divides_by_it(name, capsys):
    # the Casimir's sector 0 has a vanishing ideal expectation: figS2 and fig4
    # print no ratio and run; fig3's E divides by it and exits 3
    path = str(Path(__file__).parent / "data" / f"{name}.layout")
    code, out, err = run(["figures", "figS2", "--layout", path, "--start-sector", "0.0"], capsys)
    assert code == 0 and err == ""
    gauge_ideal = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
    assert len(gauge_ideal) == 7 * 40 and max(map(abs, gauge_ideal)) < 1e-12
    code, out, err = run(["figures", "fig4", "--layout", path, "--start-sector", "0.0"], capsys)
    assert code == 0 and err == "" and len(out.splitlines()) == 1 + 2 * 160
    rows = dyn.sweep(cli._load_layout(path), [2, 3], cli._phi_grid(0.01, 1.6, 0.01), 0.0)
    assert max(abs(r.gauge_ideal) for r in rows) < 1e-12
    assert run(["figures", "fig3", "--layout", path, "--start-sector", "0.0"], capsys) == (
        3, "", "numerical guard: ideal gauge expectation vanished\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["sectors"], ["figures", "fig3"], ["compile", "--backend", "collective"], ["covariance", "--sets", "1"]],
)
def test_repeated_plaquette_exits_2(argv, tmp_path, capsys):
    # the rotation 23 31 12 closes the same loop as 12 23 31
    path = tmp_path / "repeated.layout"
    path.write_text(TRIANGLE_PATH.read_text(encoding="utf-8") + "plaquette 23 31 12\n", encoding="utf-8")
    result = run([*argv, "--layout", str(path)], capsys)
    assert_config_error(result, "plaquette ('23', '31', '12') repeats the links of an earlier plaquette")


@pytest.mark.parametrize(
    "argv",
    [
        ["sectors"],
        ["covariance"],
        ["figures", "fig3"],
        ["compile", "--backend", "collective"],
        ["compile", "--backend", "cphase"],
    ],
)
def test_plaquette_that_lists_a_link_twice_exits_2(argv, tmp_path, capsys):
    # a self-loop closes the orientation check on its own
    path = tmp_path / "self_loop.layout"
    path.write_text("link a 1 1 0 1\nplaquette a a a\n", encoding="utf-8")
    result = run([*argv, "--layout", str(path)], capsys)
    assert_config_error(result, "plaquette ('a', 'a', 'a') lists a link more than once")


@pytest.mark.parametrize("line", ["vertex", "vertex 1 junk"])
def test_vertex_line_takes_one_id(line, tmp_path, capsys):
    path = tmp_path / "vertex.layout"
    path.write_text(f"{line}\n" + TRIANGLE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
    assert_config_error(run(["sectors", "--layout", str(path)], capsys), "line 1: expected: vertex <id>")



@pytest.mark.parametrize("argv", [["sectors"], ["covariance", "--sets", "1"], ["compile", "--backend", "cphase"]])
def test_link_id_with_a_comma_exits_2(argv, tmp_path, capsys):
    # covariance prints link ids as a CSV field
    path = tmp_path / "comma.layout"
    path.write_text(TRIANGLE_PATH.read_text(encoding="utf-8").replace("12", "1,2"), encoding="utf-8")
    result = run([*argv, "--layout", str(path)], capsys)
    assert_config_error(result, "line 4: link id '1,2' must not contain a comma")

@pytest.mark.parametrize("n0", [-1, 3])
def test_matter_rejects_an_impossible_n0(n0, capsys):
    # a link has two color cells of at most one excitation each: n0 is 0..2
    result = run(["matter", f"--n0={n0}"], capsys)
    assert_config_error(result, "n0 out of range: a link has two color cells of at most one excitation each")


def test_covariance_sets_over_limit_exits_2_before_allocating(capsys):
    # every angle set is built before the first check, so the cap on --sets
    # must answer before 10^8 of them fill the address space
    result = run_under_3gb(["covariance", "--sets", "100000000"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: --sets must be at most {cli.PHI_GRID_LIMIT}, got 100000000"]
    over = cli.PHI_GRID_LIMIT + 1
    assert_config_error(run(["covariance", f"--sets={over}"], capsys), f"--sets must be at most {cli.PHI_GRID_LIMIT}")


GOLDEN = Path(__file__).parent / "data"


def assert_matches_golden_figure(argv, golden, capsys):
    """A figure CSV against the committed one in tests/data, by ``golden_csv``'s rule."""
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert first_difference(out, (GOLDEN / golden).read_text(encoding="utf-8")) is None


@pytest.mark.parametrize("figure", ["fig3", "fig4", "figS2"])
def test_default_figures_match_golden_outputs(figure, capsys):
    assert_matches_golden_figure(["figures", figure], f"{figure}.csv", capsys)


def test_four_triangle_strip_default_fig3_matches_golden_output(capsys):
    # 18 qubits, 2^12 coset rows: no Trotter row fuses
    assert_matches_golden_figure(["figures", "fig3", "--layout", str(STRIP4_PATH)], "strip4_fig3.csv", capsys)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["compile", "--step", "--backend", "collective"], "compile_collective.json"),
        (["compile", "--step", "--backend", "cphase"], "compile_cphase.json"),
        (["bounds"], "bounds.json"),
        (["sectors", "--layout", str(STRIP3_PATH)], "strip3_sectors.csv"),
    ],
)
def test_reports_match_golden_outputs(argv, golden, capsys):
    """The step reports, the default bounds and the 14-qubit strip's sector
    table against the committed ones in tests/data, byte for byte: none of
    them comes from an eigensolver."""
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_circuit_out_matches_golden_gate_list(tmp_path, capsys):
    path = tmp_path / "step.circuit"
    code, _, _ = run(["compile", "--step", "--backend", "cphase", "--circuit-out", str(path)], capsys)
    assert code == 0
    assert path.read_text(encoding="utf-8") == (GOLDEN / "compile_cphase.circuit").read_text(encoding="utf-8")



def test_circuit_out_to_redirected_stdout_matches_the_pipe(tmp_path):
    """--circuit-out /dev/stdout writes the gate list, then the report, whether
    stdout is a pipe or a file."""
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    argv = [sys.executable, "-m", "su2link.cli", "compile", "--step", "--backend", "cphase", "--circuit-out", "/dev/stdout"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    piped = subprocess.run(argv, capture_output=True, env=env, timeout=120, check=True).stdout
    path = tmp_path / "redirected.txt"
    with open(path, "wb") as handle:
        subprocess.run(argv, stdout=handle, env=env, timeout=120, check=True)
    assert path.read_bytes() == piped
    assert piped.decode().startswith((GOLDEN / "compile_cphase.circuit").read_text(encoding="utf-8"))

def test_default_covariance_matches_golden_output(capsys):
    """The default covariance CSV against the committed one: the header and
    the set and link columns exactly, max_deviation within 1e-12 (it comes
    from eigh, so its last bits may move with the BLAS build)."""
    code, out, _ = run(["covariance"], capsys)
    assert code == 0
    want = (GOLDEN / "covariance.csv").read_text(encoding="utf-8").splitlines()
    got = out.splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for got_line, want_line in zip(got[1:], want[1:]):
        got_set, got_link, got_value = got_line.split(",")
        want_set, want_link, want_value = want_line.split(",")
        assert (got_set, got_link) == (want_set, want_link)
        assert abs(float(got_value) - float(want_value)) <= 1e-12, (got_line, want_line)


@pytest.mark.parametrize("sites", [2, 3])
def test_matter_matches_golden_outputs(sites, capsys):
    """The default-ratio matter CSVs against the committed ones in tests/data,
    byte for byte."""
    code, out, _ = run(["matter", "--sites", str(sites)], capsys)
    assert code == 0
    assert out == (GOLDEN / f"matter{sites}.csv").read_text(encoding="utf-8")


def test_config_file_defaults_and_precedence(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("eps=0.4\nplaquettes=1\n", encoding="utf-8")
    code, out, _ = run(["bounds", "--config", str(config)], capsys)
    assert code == 0
    assert json.loads(out)["eps"] == 0.4
    code, out, _ = run(["bounds", "--config", str(config), "--eps", "0.9"], capsys)
    assert code == 0
    assert json.loads(out)["eps"] == 0.9
    code, out, _ = run(["bounds"], capsys)  # the file's values do not outlive their call
    assert code == 0
    assert json.loads(out)["eps"] == 0.1


def test_main_builds_one_parser_per_process(monkeypatch, tmp_path, capsys):
    # calls without --config share the parser of the first call; a config file's defaults get a parser of their own
    run(["bounds"], capsys)
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda defaults=None: built.append(defaults) or build(defaults))
    for argv in (["bounds"], ["sectors"], ["bounds", "--eps", "0"], ["matter", "--ratios", "0.1"], ["bounds"]):
        run(argv, capsys)
    assert built == []
    config = tmp_path / "run.conf"
    config.write_text("eps=0.4\n", encoding="utf-8")
    assert run(["bounds", "--config", str(config)], capsys)[0] == 0
    assert built == [{"eps": "0.4"}]


@pytest.mark.parametrize("flag", [["--eps", "0.9"], ["--eps=0.9"], ["--ep", "0.9"], ["--ep=0.9"]])
def test_config_file_loses_to_explicit_flag_in_any_spelling(flag, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("eps=0.4\n", encoding="utf-8")
    code, out, _ = run(["bounds", "--config", str(config), *flag], capsys)
    assert code == 0
    assert json.loads(out)["eps"] == 0.9


def test_config_file_switch_values(tmp_path, capsys):
    config = tmp_path / "run.conf"
    argv = ["compile", "--backend", "collective", "--monomial", "(1.0) X0 Y1", "--config", str(config)]
    config.write_text("step=no\n", encoding="utf-8")
    assert run(argv, capsys)[0] == 0
    config.write_text("step=yes\n", encoding="utf-8")
    assert_config_error(run(argv, capsys), "--step and --monomial are mutually exclusive")


def test_config_file_bad_value_is_one_line(tmp_path, capsys):
    # a config value is converted and checked as its flag is, before the runner starts
    config = tmp_path / "run.conf"
    for argv, key, value, message in [
        (["bounds"], "eps", "abc", "argument --eps: invalid float value: 'abc'"),
        (["figures", "fig3"], "steps", "1,,2", "argument --steps: expected comma-separated integers, got '1,,2'"),
        (["bounds"], "eps", "0", "--eps must be finite and positive, got 0.0"),
        (["covariance"], "sets", "-1", "--sets must be non-negative, got -1"),
        (["compile", "--backend", "cphase"], "phi", "inf", "--phi must be finite, got inf"),
        (["matter"], "ratios", "0.1,-1", "--ratios must be finite and positive, got -1.0"),
        (["figures", "fig3"], "phi_step", "nan", "--phi-step must be finite and positive, got nan"),
    ]:
        config.write_text(f"{key}={value}\n", encoding="utf-8")
        from_file = run([*argv, "--config", str(config)], capsys)
        assert_config_error(from_file, message)
        assert from_file == run([*argv, f"--{key.replace('_', '-')}={value}"], capsys)


@pytest.mark.parametrize("monomial", ["(1) I0 X0", "(1) X0 I0"])
def test_config_monomial_that_lists_a_qubit_twice_exits_2(monomial, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(f"monomial={monomial}\n", encoding="utf-8")
    assert_config_error(run(["compile", "--backend", "collective", "--config", str(config)], capsys), "qubit 0 listed twice")


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("frobnicate=1\n", encoding="utf-8")
    code, _, err = run(["bounds", "--config", str(config)], capsys)
    assert code == 2
    assert "unknown option" in err


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["figures", "fig3", "--phi-stop", "0.1"], "steps", "1"),
        (["compile", "--backend", "collective"], "monomial", "(1.0) X0 Y1"),
        (["sectors"], "layout", str(STRIP3_PATH)),
        (["covariance", "--sets", "1"], "layout", str(STRIP3_PATH)),
        (["bounds"], "Jt", "2"),
        (["bounds"], "k", "2"),
    ],
)
def test_config_file_keys_are_the_option_names(argv, key, value, tmp_path, capsys):
    # README: keys are the option names without the leading dashes
    config = tmp_path / "run.conf"
    config.write_text(f"{key}={value}\n", encoding="utf-8")
    from_file = run([*argv, "--config", str(config)], capsys)
    assert from_file == run([*argv, f"--{key}", value], capsys)
    assert from_file != run(argv, capsys)  # the key took effect


def test_compile_single_bound_violation_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_single_gate_bound", lambda weights, backend: 0)
    code, out, err = run(["compile", "--backend", "collective", "--step"], capsys)
    assert code == 3
    assert out == ""
    assert "exceed the bound 0" in err


@pytest.mark.parametrize("step", ["0", "-0.1", "nan"])
def test_figures_rejects_bad_phi_step(step, capsys):
    code, out, err = run(["figures", "fig3", "--phi-step", step], capsys)
    assert code == 2
    assert out == ""
    assert "--phi-step must be finite and positive" in err


@pytest.mark.parametrize("option", ["--phi-start", "--phi-stop"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_figures_rejects_non_finite_phi_bounds(option, value, capsys):
    code, out, err = run(["figures", "fig3", f"{option}={value}"], capsys)
    assert code == 2
    assert out == ""
    assert f"{option} must be finite" in err


def test_config_file_rejects_infinite_phi_start(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("phi_start=-inf\n", encoding="utf-8")
    code, out, err = run(["figures", "fig3", "--config", str(config)], capsys)
    assert code == 2
    assert out == ""
    assert "--phi-start must be finite" in err


@pytest.mark.parametrize(
    "bounds",
    [
        ["--phi-step", "1e-300"],  # moves phi, but by far too little to reach the stop
        ["--phi-start=-1e308"],  # the default step does not move phi at all
        ["--phi-start", "9007199254740990", "--phi-stop", "9007199254741000", "--phi-step", "1"],
    ],
    ids=["tiny-step", "huge-start", "stalls-at-2**53"],
)
def test_figures_rejects_grid_that_never_ends(bounds, capsys):
    code, out, err = run(["figures", "fig3", *bounds], capsys)
    assert code == 2
    assert out == ""
    assert f"phi grid would exceed {cli.PHI_GRID_LIMIT} points" in err


@pytest.mark.parametrize("figure", ["fig3", "fig4", "figS2"])
@pytest.mark.parametrize("steps", ["0", "-1", "2,0"])
def test_figures_rejects_step_count_below_one(figure, steps, capsys):
    code, out, err = run(["figures", figure, f"--steps={steps}", "--phi-stop", "0.1"], capsys)
    assert code == 2
    assert out == ""
    assert "step count must be at least 1" in err


def assert_config_error(result, message):
    """Exit 2, nothing on stdout, and one line on stderr naming the problem."""
    code, out, err = result
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("figure", ["fig3", "fig4", "figS2"])
def test_figures_rejects_unknown_start_sector(figure, capsys):
    result = run(["figures", figure, "--start-sector", "1.0", "--phi-stop", "0.1"], capsys)
    assert_config_error(result, "no sector with eigenvalue 1.0; available: 0.75, 2.25, 2.75")


@pytest.mark.parametrize("ratios", ["0", "-0.1", "nan", "inf", "0.1,0"])
def test_matter_rejects_non_positive_ratios(ratios, capsys):
    result = run(["matter", f"--ratios={ratios}"], capsys)
    assert_config_error(result, "--ratios must be finite and positive")


@pytest.mark.parametrize("omega", ["nan", "inf", "-inf"])
def test_matter_rejects_non_finite_omega(omega, capsys):
    assert_config_error(run(["matter", f"--omega={omega}"], capsys), "--omega must be finite")


@pytest.mark.parametrize("hopping", ["nan", "inf", "-inf", "0", "-1"])
def test_matter_rejects_hopping_that_is_not_finite_and_positive(hopping, capsys):
    assert_config_error(run(["matter", f"--hopping={hopping}"], capsys), "--hopping must be finite and positive")


@pytest.mark.parametrize("argv", [["--omega", "1e308"], ["--hopping", "1e200"], ["--ratios", "5e-324"]])
def test_matter_overflow_exits_2(argv, capsys):
    assert_config_error(run(["matter", *argv], capsys), "the matter-chain energies overflow a float")


# weights 0, 1 and 2, which each backend lowers by a path of its own
@pytest.mark.parametrize("backend", ["collective", "cphase"])
@pytest.mark.parametrize("monomial", ["(nan) I", "(inf) X0", "(-inf) X0 X1"])
def test_compile_rejects_a_non_finite_coefficient(backend, monomial, capsys):
    argv = ["compile", "--backend", backend, "--monomial", monomial]
    coefficient = complex(monomial.split(")")[0][1:])
    assert_config_error(run(argv, capsys), f"Pauli coefficient must be finite, got {coefficient!r}")


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_compile_rejects_a_non_finite_phi(phi, capsys):
    argv = ["compile", "--backend", "cphase", "--monomial", "(1) I", f"--phi={phi}"]
    assert_config_error(run(argv, capsys), f"--phi must be finite, got {float(phi)!r}")


@pytest.mark.parametrize("backend, coefficient", [("cphase", "(nanj)"), ("collective", "(1+nanj)")])
def test_compile_rejects_a_nan_imaginary_part(backend, coefficient, capsys):
    argv = ["compile", "--backend", backend, "--monomial", f"{coefficient} X0 X1"]
    assert_config_error(run(argv, capsys), f"Pauli coefficient must be finite, got {complex(coefficient[1:-1])!r}")


@pytest.mark.parametrize("plaquettes", ["0", "-1"])
def test_bounds_rejects_plaquettes_below_one(plaquettes, capsys):
    result = run(["bounds", f"--plaquettes={plaquettes}"], capsys)
    assert_config_error(result, f"--plaquettes must be at least 1, got {plaquettes}")


def test_covariance_rejects_negative_sets(capsys):
    assert_config_error(run(["covariance", "--sets=-1"], capsys), "--sets must be non-negative, got -1")
    assert_config_error(run(["covariance", "--seed=-1"], capsys), "--seed must be non-negative, got -1")
    code, out, err = run(["covariance", "--sets", "0"], capsys)
    assert code == 0
    assert out == "set,link,max_deviation\n"
    assert err == ""


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--Jt", "-1", "--Jt must be finite and non-negative, got -1.0"),
        ("--Jt", "inf", "--Jt must be finite and non-negative, got inf"),
        ("--Jt", "nan", "--Jt must be finite and non-negative, got nan"),
        ("--eps", "nan", "--eps must be finite and positive, got nan"),
        ("--eps", "inf", "--eps must be finite and positive, got inf"),
        ("--eps", "0", "--eps must be finite and positive, got 0.0"),
        ("--eps", "-0.1", "--eps must be finite and positive, got -0.1"),
    ],
)
def test_bounds_rejects_bad_jt_and_eps(option, value, message, capsys):
    assert_config_error(run(["bounds", f"{option}={value}"], capsys), message)


@pytest.mark.parametrize("argv", [["--Jt", "1e300"], ["--k", "1000"], ["--k", str(2**31)]])
def test_bounds_overflow_exits_2(argv, capsys):
    assert_config_error(run(["bounds", *argv], capsys), "the step bound overflows a float")


def test_bounds_zero_jt_needs_no_steps(capsys):
    code, out, _ = run(["bounds", "--Jt", "0"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["steps_generic"] == 0 and report["steps_printed_constant"] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--eps", "abc"], "argument --eps: invalid float value: 'abc'"),
        (["figures", "fig5"], "argument figure: invalid choice: 'fig5'"),
        (["compile"], "the following arguments are required: --backend"),
        ([], "the following arguments are required: command"),
        (["compile", "--backend", "cphase", "--phi=--"], "argument --phi: invalid float value: '--'"),
        (["compile", "--backend=--"], "argument --backend: invalid choice: '--'"),
        (["figures", "fig3", "--steps=abc"], "argument --steps: expected comma-separated integers, got 'abc'"),
        (["figures", "fig3", "--steps=1.5"], "argument --steps: expected comma-separated integers, got '1.5'"),
        (["figures", "fig3", "--steps", ","], "argument --steps: expected comma-separated integers, got ','"),
        (["figures", "fig3", "--steps", "1,,2"], "argument --steps: expected comma-separated integers, got '1,,2'"),
        (["matter", "--ratios=x"], "argument --ratios: expected comma-separated numbers, got 'x'"),
        (["matter", "--ratios", "0.1,"], "argument --ratios: expected comma-separated numbers, got '0.1,'"),
    ],
    ids=[
        "bad-float", "bad-choice", "missing-option", "missing-command", "double-dash-value", "double-dash-choice",
        "steps-not-a-number", "steps-not-an-integer", "steps-empty-items", "steps-empty-item", "ratios-not-a-number",
        "ratios-empty-item",
    ],
)
def test_usage_errors_are_one_line(argv, message, capsys):
    assert_config_error(run(argv, capsys), message)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["bounds", "--help"])
    assert exit_info.value.code == 0
    assert "--eps" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("figure", ["fig3", "fig4", "figS2"])
def test_figures_overflow_exits_2(figure, capsys):
    argv = ["figures", figure, "--phi-start=1e308", "--phi-stop=1e308", "--phi-step=1e308"]
    assert_config_error(run(argv, capsys), "the plaquette energies overflow a float")


@pytest.mark.parametrize("argv", [["figures", "fig3"], ["compile", "--backend", "cphase"]], ids=["figures", "compile"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_has_no_coupling_option(argv, source, tmp_path, capsys):
    # figures and compile run at J = 1: a phase phi = J t is its own evolution time
    if source == "flag":
        assert_config_error(run([*argv, "--J=1"], capsys), "unrecognized arguments: --J=1")
    else:
        config = tmp_path / "run.conf"
        config.write_text("J=0.7\n", encoding="utf-8")
        assert_config_error(run([*argv, "--config", str(config)], capsys), "config file sets unknown option 'J'")


@pytest.mark.parametrize("backend", ["collective", "cphase"])
@pytest.mark.parametrize("coupling, phi", [(0.7, 0.1), (2.5, 0.3), (-1.3, 0.05), (1e-3, 1.7), (40.0, -0.2)])
def test_compile_phi_carries_the_coupling(backend, coupling, phi, tmp_path, capsys):
    # a coupling J reaches a gate angle only as phi J, so --phi repr(phi * J) at J = 1
    # prints what compiling the J-scaled step at phi gives
    circuit = cp.compile_step(lm.plaquette_monomials(lm.triangle_layout(), coupling), phi, backend)
    low, high = cp.fidelity_cap(circuit.counts, backend)
    gates = tmp_path / "gates.txt"
    code, out, err = run(["compile", "--backend", backend, f"--phi={phi * coupling!r}", "--circuit-out", str(gates)], capsys)
    assert code == 0 and err == ""
    assert gates.read_text(encoding="utf-8") == cli.format_circuit(circuit)
    report = json.loads(out)
    assert report["monomials"] == 16 and report["fidelity_band"] == {"low": low, "high": high}
    assert {kind: report[kind] for kind in ("collective", "cphase", "single")} == asdict(circuit.counts)


@pytest.mark.parametrize("layout", [str(TRIANGLE_PATH), "/nonexistent/triangle.layout"])
def test_compile_refuses_a_layout_with_a_monomial(layout, tmp_path, capsys):
    # refused before the layout file is read, as --step is
    argv = ["compile", "--backend", "collective", "--monomial", "(1.0) X0 X1", "--layout", layout]
    assert_config_error(run(argv, capsys), "--layout and --monomial are mutually exclusive")
    config = tmp_path / "run.conf"
    config.write_text(f"layout={layout}\n", encoding="utf-8")
    assert_config_error(run([*argv[:-2], "--config", str(config)], capsys), "--layout and --monomial are mutually exclusive")


@pytest.mark.parametrize("figure", ["fig3", "fig4", "figS2"])
@pytest.mark.parametrize("steps", ["1000000000", f"1,{cli.PHI_GRID_LIMIT + 1}", str(2**31)])
def test_figures_caps_step_counts(figure, steps, capsys):
    result = run(["figures", figure, f"--steps={steps}"], capsys)
    largest = max(int(part) for part in steps.split(","))
    assert_config_error(result, f"--steps must be at most {cli.PHI_GRID_LIMIT}, got {largest}")


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "out.txt"
    assert_config_error(run(["bounds", "--out", str(missing)], capsys), "No such file or directory")
    argv = ["compile", "--backend", "collective", "--circuit-out", str(missing)]
    assert_config_error(run(argv, capsys), "No such file or directory")


def test_two_plaquette_fig3_matches_dense_oracle(two_plaquette, two_plaquette_path, dense_canonical_state, capsys):
    code, out, err = run(
        ["figures", "fig3", "--steps", "1,2", "--layout", str(two_plaquette_path),
         "--phi-start", "0.5", "--phi-stop", "0.6"],
        capsys,
    )
    assert code == 0 and err == ""
    rows = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[1:]])
    assert rows[:, :2].tolist() == [[n, phi] for n in (1, 2) for phi in (0.5, 0.55, 0.6)]
    # the oracle: dense-basis start state, eigh of the dense Hamiltonian, dense Casimir
    n = two_plaquette.n_qubits
    psi0 = dense_canonical_state(two_plaquette, 0.75)
    hamiltonian = lm.plaquette_hamiltonian(two_plaquette, 1.0)
    eigvals, eigvecs = np.linalg.eigh(dense(hamiltonian, n).real)
    casimir = dense(lm.total_gauge_casimir(two_plaquette), n)
    expected = []
    for steps, phi in rows[:, :2]:
        ideal = eigvecs @ (np.exp(-1j * eigvals * phi) * (eigvecs.T @ psi0))
        digital = dyn.trotter_evolve(lm.plaquette_monomials(two_plaquette, 1.0), psi0, phi, int(steps))
        gauge_i, gauge_d = (float((psi.conj() @ casimir @ psi).real) for psi in (ideal, digital))
        overlaps = [abs(np.vdot(ideal, other)) ** 2 for other in (psi0, digital)]
        expected.append([steps, phi, (gauge_i - gauge_d) / gauge_i, *overlaps])
    assert np.max(np.abs(rows - np.array(expected))) < 1e-12


@pytest.mark.parametrize("backend", ["collective", "cphase"])
def test_compile_rejects_a_layout_without_plaquettes(backend, tmp_path, capsys):
    path = tmp_path / "open.layout"
    lines = TRIANGLE_PATH.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("plaquette")), encoding="utf-8")
    result = run(["compile", "--backend", backend, "--layout", str(path)], capsys)
    assert_config_error(result, "layout contains no plaquettes")

