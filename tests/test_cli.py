"""Command-line interface: exit codes, stable output, pipelines."""

from dataclasses import replace

import numpy as np
import pytest

import graphsep
from graphsep import (
    Eigendecomposition,
    cli,
    decompose,
    format_decomposition,
    graphs,
    inf_norm,
    linalg,
    parse_graph,
    separability,
    transforms,
)
from graphsep.cli import main
from test_golden_records import per_term_text
from test_record_writer import format_rows_oracle

M222_TEXT = "dims 2 2 2\ne 1 5\ne 2 6\ne 3 7\ne 4 8\n"
K2_TEXT = "dims 2 2\ne 1 2\n"
EMPTY_TEXT = "dims 2 2 2\n"
INTRA_TEXT = "dims 2 2 2\ne 1 2\n"
EDGE16_TEXT = "dims 2 2 2\ne 1 6\n"
NOT_PSYM_TEXT = "dims 2 2\ne 1 4\n"  # the partner of (1, 4) on axis 1 is (2, 3)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "m222.graph").write_text(M222_TEXT)
    (tmp_path / "k2.graph").write_text(K2_TEXT)
    (tmp_path / "empty.graph").write_text(EMPTY_TEXT)
    (tmp_path / "intra.graph").write_text(INTRA_TEXT)
    (tmp_path / "edge16.graph").write_text(EDGE16_TEXT)
    (tmp_path / "notpsym.graph").write_text(NOT_PSYM_TEXT)
    return tmp_path


# One row per input class: argv ({w} is the work directory, whose m222.dec
# is a certified record of m222), exit code, and a fragment of stderr.  A
# command that fails (exit 2 or more) prints nothing on stdout; a property
# that does not hold (exit 1) still prints its report.
EXIT_CODES = {
    "build-empty-adjacency": (["build", "{w}/empty.graph", "--matrix", "A"], 0, ""),
    "build-missing-file": (["build", "{w}/nope.graph"], 4, "No such file"),
    "check-empty-conditions": (["check", "{w}/empty.graph", "theorem-conditions"], 1, ""),
    "check-empty-partial-sym": (["check", "{w}/empty.graph", "partial-sym"], 0, ""),
    "check-usage-error": (["check", "{w}/m222.graph", "no-such-property"], 4, "invalid choice"),
    "check-axis-out-of-range": (
        ["check", "{w}/m222.graph", "partial-sym", "--axis", "9"], 2, "axis 9 out of range"
    ),
    "check-conditions-axis-out-of-range": (
        ["check", "{w}/m222.graph", "theorem-conditions", "--axis", "99"],
        2,
        "precondition unmet: axis 99 out of range 1..3",
    ),
    "check-partial-sym-fails": (["check", "{w}/notpsym.graph", "partial-sym"], 1, ""),
    "decompose-empty": (["decompose", "{w}/empty.graph", "{w}/x.dec"], 2, "empty graph"),
    "decompose-conditions-fail": (
        ["decompose", "{w}/intra.graph", "{w}/x.dec"], 2, "precondition unmet: decomposition hypotheses fail"
    ),
    "verify-other-profile": (["verify", "{w}/k2.graph", "{w}/m222.dec"], 2, "does not match"),
    "verify-no-terms": (
        ["verify", "{w}/m222.graph", "{w}/zero.dec"], 4, "line 3: terms 0 does not match the 4 terms of the basis"
    ),
    "verify-empty": (["verify", "{w}/empty.graph", "{w}/m222.dec"], 2, "zero trace"),
    "verify-unreadable-record": (["verify", "{w}/m222.graph", "{w}/bad.dec"], 4, "header"),
    "verify-negative-term-count": (
        ["verify", "{w}/m222.graph", "{w}/negative.dec"], 4, "line 3: bad term count '-1'"
    ),
    "verify-short-vector-row": (["verify", "{w}/m222.graph", "{w}/short.dec"], 4, "expected 2 values"),
    "verify-bad-vector-token": (["verify", "{w}/m222.graph", "{w}/token.dec"], 4, "bad numeric value"),
    "verify-non-unit-vector": (["verify", "{w}/m222.graph", "{w}/nonunit.dec"], 1, "trace 4"),
    "verify-nan-vector": (["verify", "{w}/m222.graph", "{w}/nan.dec"], 1, "non-finite"),
    "verify-per-term-record": (
        ["verify", "{w}/m222.graph", "{w}/per-term.dec"],
        4,
        "per-term.dec: line 6: 'term 1' starts a per-term record, a form no longer read;"
        " re-run 'graphsep decompose' to write the record in basis form",
    ),
    "gen-bad-dims": (["gen", "psym", "--dims", "2", "--seed", "0"], 4, "at least 2"),
    "gen-dims-over-cap": (["gen", "theorem", "--dims", "2,1024"], 4, "exceeds the cap"),
    "gen-negative-budget": (["gen", "psym", "--dims", "2,2,2", "--budget", "-1"], 4, "--budget"),
}
# Copies of m222.dec, a basis record, with the first axis-2 eigenvector row
# (1 0) edited.
VECTOR_ROW_EDITS = {
    "short.dec": lambda row: row[:1],
    "token.dec": lambda row: ["x", row[1]],
    "nonunit.dec": lambda row: ["2", row[1]],
    "nan.dec": lambda row: ["nan", row[1]],
}


def edit_vector_row(text, edit):
    lines = text.splitlines()
    at = lines.index("axis 2 basis 2") + 2  # after the eigenvalues line
    lines[at] = " ".join(edit(lines[at].split()))
    return "\n".join(lines) + "\n"


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(EXIT_CODES))
    def test_exit_code(self, workdir, capsys, case):
        argv, code, err = EXIT_CODES[case]
        dec = decompose(parse_graph(M222_TEXT))
        record = format_decomposition(dec)
        (workdir / "m222.dec").write_text(record)
        (workdir / "bad.dec").write_text("not-a-decomposition\n")
        (workdir / "negative.dec").write_text("graphsep-decomposition\ndims 2 2 2\nterms -1\n")
        (workdir / "zero.dec").write_text("graphsep-decomposition\ndims 2 2 2\nterms 0\n")
        (workdir / "per-term.dec").write_text(per_term_text(dec))
        for name, edit in VECTOR_ROW_EDITS.items():
            (workdir / name).write_text(edit_vector_row(record, edit))
        assert main([arg.format(w=workdir) for arg in argv]) == code
        captured = capsys.readouterr()
        assert err in captured.err
        if code >= 2:
            assert captured.out == ""
        assert not (workdir / "x.dec").exists()


# Each build --matrix kind, from the library functions it prints.
BUILDERS = {
    "A": graphs.adjacency_matrix,
    "D": graphs.degree_matrix,
    "L": graphs.laplacian,
    "Q": graphs.signless_laplacian,
    "rho_l": lambda graph: graphs.density_matrix(graph, "combinatorial").matrix,
    "rho_q": lambda graph: graphs.density_matrix(graph, "signless").matrix,
}


class TestBuild:
    def test_q_matrix_golden(self, workdir, capsys):
        assert main(["build", str(workdir / "m222.graph"), "--matrix", "Q"]) == 0
        out = capsys.readouterr().out
        rows = [[int(x) for x in line.split()] for line in out.strip().splitlines()]
        eye4 = np.eye(4, dtype=int)
        assert np.array_equal(rows, np.block([[eye4, eye4], [eye4, eye4]]))

    def test_l_matrix_golden(self, workdir, capsys):
        assert main(["build", str(workdir / "k2.graph"), "--matrix", "L"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].split() == ["1", "-1", "0", "0"]
        assert out[1].split() == ["-1", "1", "0", "0"]

    def test_rho_uses_17_digit_floats(self, workdir, capsys):
        assert main(["build", str(workdir / "m222.graph"), "--matrix", "rho_q"]) == 0
        out = capsys.readouterr().out
        assert "1.2500000000000000e-01" in out
        assert "-0." not in out

    @pytest.mark.parametrize("family", ["theorem-3x2x2", "psym-4x4x4"])
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_matrix_writes_like_oracle(self, tmp_path, capsys, family, kind):
        # Every kind, byte for byte, against the matrix written one value at
        # a time: integers by str, floats by format_float.
        if family == "theorem-3x2x2":
            graph = graphsep.gen_theorem_graph(graphsep.DimensionProfile((3, 2, 2)), 1)
        else:
            graph = graphsep.gen_partially_symmetric(graphsep.DimensionProfile((4, 4, 4)), 40, 2)
        path = tmp_path / "g.graph"
        path.write_text(graphsep.format_graph(graph))
        assert main(["build", str(path), "--matrix", kind]) == 0
        expected = "".join(row + "\n" for row in format_rows_oracle(BUILDERS[kind](graph)))
        assert capsys.readouterr().out == expected

    def test_zero_trace_exit_2(self, workdir, capsys):
        code = main(["build", str(workdir / "empty.graph"), "--matrix", "rho_l"])
        assert code == 2
        assert "zero trace" in capsys.readouterr().err

    def test_parse_error_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("dims 2 2\ne 1 2\ne 1 2\n")
        assert main(["build", str(bad)]) == 4
        assert "line 3" in capsys.readouterr().err


class TestCheck:
    def test_partial_sym_true(self, workdir, capsys):
        code = main(
            ["check", str(workdir / "m222.graph"), "partial-sym", "--axis", "1", "--format", "kv"]
        )
        assert code == 0
        assert "holds=true" in capsys.readouterr().out

    def test_degree_sym_false_exit_1(self, workdir, capsys):
        code = main(
            ["check", str(workdir / "edge16.graph"), "degree-sym", "--format", "kv"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "holds=false" in out
        assert "1:1->0" in out

    def test_theorem_conditions_kv(self, workdir, capsys):
        code = main(
            ["check", str(workdir / "m222.graph"), "theorem-conditions", "--format", "kv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overall=true" in out
        assert "layer_degrees=1,1" in out

    def test_theorem_conditions_empty_graph_does_not_hold(self, workdir, capsys):
        # The block/degree conditions hold vacuously, but decompose refuses
        # the empty graph, so holds is false.
        code = main(
            ["check", str(workdir / "empty.graph"), "theorem-conditions", "--format", "kv"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "overall=true" in out and "partially_symmetric=true" in out
        assert "holds=false" in out
        assert main(["check", str(workdir / "empty.graph"), "theorem-conditions"]) == 1
        assert "empty graph" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["human", "kv"])
    @pytest.mark.parametrize("graph", ["m222", "notpsym"])
    def test_theorem_conditions_read_every_axis(self, workdir, capsys, graph, fmt):
        # An in-range --axis changes nothing: the conditions span all axes.
        argv = ["check", str(workdir / f"{graph}.graph"), "theorem-conditions", "--format", fmt]
        code = main(argv)
        out = capsys.readouterr().out
        n = 3 if graph == "m222" else 2
        for axis in range(1, n + 1):
            assert main(argv + ["--axis", str(axis)]) == code
            assert capsys.readouterr().out == out

    def test_gtpt_identity(self, workdir):
        assert main(["check", str(workdir / "edge16.graph"), "gtpt-identity"]) == 0

    @pytest.mark.parametrize("what, fmt, expected", [
        ("partial-sym", "human", "partially symmetric on axis 1: false\n"
         "  violating_edge: (1, 4)\n  missing_partner: (2, 3)\n"),
        ("partial-sym", "kv", "property=partial-sym\naxis=1\nholds=false\n"
         "violating_edge=(1, 4)\nmissing_partner=(2, 3)\n"),
        ("degree-sym", "human", "degree symmetric on axis 1: false\n"
         "  degree_changes: 1:1->0;2:0->1;3:0->1;4:1->0\n"),
        ("degree-sym", "kv", "property=degree-sym\naxis=1\nholds=false\n"
         "degree_changes=1:1->0;2:0->1;3:0->1;4:1->0\n"),
    ])
    def test_swap_check_witnesses(self, workdir, capsys, what, fmt, expected):
        code = main(["check", str(workdir / "notpsym.graph"), what, "--format", fmt])
        assert code == 1
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("fmt, expected", [
        ("human", "adjacency/partial-transpose identity on axis 1: false\n"
         "  first_difference: (1, 5, 0, 1)\n"),
        ("kv", "property=gtpt-identity\naxis=1\nholds=false\nfirst_difference=(1, 5, 0, 1)\n"),
    ])
    def test_gtpt_identity_witness_under_a_mutant_rewrite(self, workdir, monkeypatch, capsys, fmt, expected):
        # The true rewrite with its first image edge (1, 5) dropped: the
        # first entry only the partial transpose holds is A[1, 5].
        rewrite = transforms.gtpt

        def drop_first_edge(graph, axis=1):
            return graphs.MultipartiteGraph(graph.profile, rewrite(graph, axis).edge_array()[1:])

        monkeypatch.setattr(transforms, "gtpt", drop_first_edge)
        assert main(["check", str(workdir / "m222.graph"), "gtpt-identity", "--format", fmt]) == 1
        assert capsys.readouterr().out == expected

    def test_partial_symmetry_failure_text(self, workdir, capsys):
        graph = str(workdir / "notpsym.graph")
        failures = (
            "not partially symmetric: edge (1, 4) lacks its swapped partner;"
            " level 1: block at prefixes (2,) x (1,) differs from the common block;"
            " layer degrees not uniform: layer 1 has degrees [0, 1], layer 2 has degrees [0, 1]"
        )
        assert main(["check", graph, "theorem-conditions"]) == 1
        assert capsys.readouterr().out.splitlines()[0] == f"theorem conditions: {failures}"
        assert main(["decompose", graph, str(workdir / "x.dec")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"precondition unmet: decomposition hypotheses fail: {failures}\n"
        assert captured.out == "" and not (workdir / "x.dec").exists()

    def test_graph_not_utf8_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "latin1.graph"
        bad.write_bytes("dims 2 2\ne 1 2 # café\n".encode("latin-1"))
        assert main(["check", str(bad), "partial-sym"]) == 4
        assert "not UTF-8" in capsys.readouterr().err


class TestDecomposeVerify:
    def test_round_trip(self, workdir, capsys):
        dec_path = workdir / "out.dec"
        assert main(["decompose", str(workdir / "m222.graph"), str(dec_path)]) == 0
        out = capsys.readouterr().out
        assert "terms=4" in out
        assert "ppt_axis_3=pass" in out
        assert main(["verify", str(workdir / "m222.graph"), str(dec_path)]) == 0
        assert "verified=pass" in capsys.readouterr().out

    def test_conforming_decompose_makes_no_dense_eigen_call(self, tmp_path, monkeypatch, capsys):
        # All five PPT verdicts come from the edge test per axis and
        # Q = R R^T, so no V x V matrix is eigensolved.
        graph_path = tmp_path / "g.graph"
        argv = ["gen", "theorem", "--dims", "2,4,4,4,4", "--seed", "0", "-o", str(graph_path)]
        assert main(argv) == 0
        shapes = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a)[-2:])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        assert main(["decompose", str(graph_path), str(tmp_path / "g.dec")]) == 0
        out = capsys.readouterr().out
        assert all(f"ppt_axis_{k}=pass" in out for k in range(1, 6))
        assert shapes.count((512, 512)) == 0

    def test_rank_one_factors_skip_the_eigensolve(self, tmp_path, monkeypatch, capsys):
        # A grid record of 128 terms: each verification takes the factored
        # path, which certifies the first factors by Gershgorin discs and
        # every factor k >= 2 from the rounding of its vector's product, so
        # neither decompose nor verify eigensolves any factor.
        graph_path = tmp_path / "g.graph"
        argv = ["gen", "theorem", "--dims", "2,2,64", "--seed", "1", "-o", str(graph_path)]
        assert main(argv) == 0
        shapes = []
        original = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        dec_path = tmp_path / "g.dec"
        assert main(["decompose", str(graph_path), str(dec_path)]) == 0
        assert main(["verify", str(graph_path), str(dec_path)]) == 0
        assert "verified=pass" in capsys.readouterr().out
        assert shapes == []

    def test_decompose_builds_rho_once(self, tmp_path, monkeypatch):
        # decompose certifies its grid record from the per-axis factors and
        # the CLI's PPT verdicts follow from the conditions, so neither builds rho;
        # nor does verify of that record.
        profiles = ["2,2,2", "3,2,2", "2,4,4,4,4"]
        for i, dims in enumerate(profiles):
            argv = ["gen", "theorem", "--dims", dims, "--seed", "1", "-o", str(tmp_path / f"{i}.graph")]
            assert main(argv) == 0
        calls = []
        original = graphs.density_matrix

        def counting(*args, **kwargs):
            calls.append(args[0].profile.dims)
            return original(*args, **kwargs)

        for module in (graphsep, graphs, separability, cli):
            monkeypatch.setattr(module, "density_matrix", counting)
        for i in range(len(profiles)):
            assert main(["decompose", str(tmp_path / f"{i}.graph"), str(tmp_path / f"{i}.dec")]) == 0
            assert main(["verify", str(tmp_path / f"{i}.graph"), str(tmp_path / f"{i}.dec")]) == 0
        assert calls == []

    def test_stale_record_is_refused_before_rho_or_conditions(self, tmp_path, monkeypatch, capsys):
        # The profiles are compared first: exit 2 with the same message, and
        # neither rho nor the conditions are computed.
        for name, dims in (("a", "2,2,2"), ("b", "2,4,4")):
            argv = ["gen", "theorem", "--dims", dims, "--seed", "1", "-o", str(tmp_path / f"{name}.graph")]
            assert main(argv) == 0
        assert main(["decompose", str(tmp_path / "a.graph"), str(tmp_path / "a.dec")]) == 0
        capsys.readouterr()
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("not reached")

        for module in (graphsep, graphs, separability, cli):
            monkeypatch.setattr(module, "density_matrix", refuse)
        monkeypatch.setattr(separability, "check_theorem_conditions", refuse)
        assert main(["verify", str(tmp_path / "b.graph"), str(tmp_path / "a.dec")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and calls == []
        assert (
            "precondition unmet: decomposition profile (2, 2, 2) does not match"
            " density matrix profile (2, 4, 4)"
        ) in captured.err

    def test_precondition_exit_2(self, workdir, capsys):
        code = main(["decompose", str(workdir / "intra.graph"), str(workdir / "x.dec")])
        assert code == 2
        assert "intra-layer edge (1, 2)" in capsys.readouterr().err

    def test_decompose_runs_no_edge_test(self, tmp_path, monkeypatch, capsys):
        # A conforming graph passes the Kronecker count, which makes it a
        # fixed point of the rewrite on every axis: no edge test runs, and
        # the PPT verdicts still report all n axes.
        graph_path = tmp_path / "g.graph"
        argv = ["gen", "theorem", "--dims", "2,4,4,4,4", "--seed", "0", "-o", str(graph_path)]
        assert main(argv) == 0
        axes = []
        original = cli.is_partially_symmetric

        def counting(graph, axis=1):
            axes.append(axis)
            return original(graph, axis)

        for module in (graphsep, transforms, separability, cli):
            monkeypatch.setattr(module, "is_partially_symmetric", counting)
        capsys.readouterr()
        assert main(["decompose", str(graph_path), str(tmp_path / "g.dec")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert axes == []
        assert all(f"ppt_axis_{k}=pass" in out for k in range(1, 6))

    def test_decompose_and_verify_build_no_term_objects(self, tmp_path, monkeypatch, capsys):
        # A decomposition and a grid record are held as their grid: the term
        # count is its length, and the record is written and certified from
        # its arrays.
        graph_path, dec_path = tmp_path / "g.graph", tmp_path / "g.dec"
        argv = ["gen", "theorem", "--dims", "2,4,4,4,4", "--seed", "1", "-o", str(graph_path)]
        assert main(argv) == 0
        built = []
        original = separability.DecompositionTerm.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(separability.DecompositionTerm, "__init__", counting)
        capsys.readouterr()
        for command in ("decompose", "verify"):
            assert main([command, str(graph_path), str(dec_path)]) == 0
            assert "terms=256" in capsys.readouterr().out.splitlines()
            assert built == [], command

    def test_tampered_factor_fails_certify(self):
        # Term 1's first factor, 0.5 everywhere, with one entry made 0.5001,
        # among the terms held one by one: the dense path fails it.
        graph = parse_graph(M222_TEXT)
        dec = decompose(graph)
        first, *rest = dec.terms
        factor = first.factors[0].copy()
        factor[0, 0] = 0.5001
        tampered = replace(dec, terms=(replace(first, factors=(factor, *first.factors[1:])), *rest))
        certificate = separability.certify_decomposition(tampered, graph)
        assert not certificate.passed
        assert certificate.failures[0].startswith("term 1 factor 1: trace 1.0001")

    @pytest.mark.parametrize("field", ["weight", "factor entry"])
    def test_non_finite_record_fails_verify(self, workdir, capsys, field):
        dec_path = workdir / "out.dec"
        assert main(["decompose", str(workdir / "m222.graph"), str(dec_path)]) == 0
        capsys.readouterr()
        lines = dec_path.read_text().splitlines()
        if field == "weight":
            lines = ["weight nan" if x.startswith("weight ") else x for x in lines]
        else:
            row = lines.index("axis 2 basis 2") + 2  # the first eigenvector
            lines[row] = "inf " + lines[row].split()[1]
        dec_path.write_text("\n".join(lines) + "\n")
        code = main(["verify", str(workdir / "m222.graph"), str(dec_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "verified=fail" in captured.out
        assert "non-finite" in captured.err

    @pytest.mark.filterwarnings("error")
    def test_huge_entry_fails_on_the_dense_path_without_warning(self):
        # The terms of (2, 4, 4, 4) seed 1 held one by one, with one factor-1
        # entry at 1e308: that factor fails its trace test on the dense
        # path, and the reassembly residual overflows, with no warning.
        graph = graphsep.gen_theorem_graph(graphsep.DimensionProfile((2, 4, 4, 4)), 1)
        dec = decompose(graph)
        first, *rest = dec.terms
        factor = first.factors[0].copy()
        factor[0, 0] = 1e308
        huge = replace(dec, terms=(replace(first, factors=(factor, *first.factors[1:])), *rest))
        certificate = separability.certify_decomposition(huge, graph)
        assert not certificate.passed
        assert "term 1 factor 1: trace 1e+308, expected 1" in certificate.failures

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_exit_4(self, workdir, capsys, command, tol):
        dec_path = workdir / "out.dec"
        assert main(["decompose", str(workdir / "m222.graph"), str(dec_path)]) == 0
        capsys.readouterr()
        argv = [command, str(workdir / "m222.graph"), str(dec_path), f"--tol={tol}"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert "--tol" in captured.err
        assert captured.out == ""

    def test_tolerance_too_tight_exit_3(self, workdir, capsys):
        dec_path = workdir / "out.dec"
        graph = workdir / "t.graph"
        assert main(["gen", "theorem", "--dims", "2,2,3", "--seed", "1", "-o", str(graph)]) == 0
        assert main(["decompose", str(graph), str(dec_path), "--tol", "1e-300"]) == 3
        assert "failed verification" in capsys.readouterr().err
        assert not dec_path.exists()

    def test_verify_record_not_utf8_exit_4(self, workdir, capsys):
        bad = workdir / "bad.dec"
        bad.write_bytes(b"graphsep-decomposition\n\xfe\xff\n")
        assert main(["verify", str(workdir / "m222.graph"), str(bad)]) == 4
        assert "not UTF-8" in capsys.readouterr().err

    def test_verify_profile_mismatch_exit_2(self, workdir, capsys):
        dec_path = workdir / "out.dec"
        assert main(["decompose", str(workdir / "m222.graph"), str(dec_path)]) == 0
        capsys.readouterr()
        code = main(["verify", str(workdir / "k2.graph"), str(dec_path)])
        assert code == 2
        assert "profile" in capsys.readouterr().err


class TestBasisRecord:
    """The basis form ``decompose`` writes: a malformed line is a parse
    error naming that line (exit 4), and an edited value fails verification
    (exit 1).  The record of the (2, 4, 4, 4) theorem graph of seed 1 has
    the weight on line 6, axis 2 on lines 7-12, axis 3 on lines 13-18, axis
    4 (eigenvalues 3, 1, 1, -1) on lines 19-24, F_1 = [[0, 1], [1, 0]] on
    lines 25-27 and the degrees, 3 3, on line 28."""

    @pytest.fixture
    def files(self, tmp_path):
        graph = graphsep.gen_theorem_graph(graphsep.DimensionProfile((2, 4, 4, 4)), 1)
        (tmp_path / "g.graph").write_text(graphsep.format_graph(graph))
        record = format_decomposition(decompose(graph))
        assert record.splitlines()[27] == "degrees 3 3"
        return tmp_path, record.splitlines()

    def verify(self, files, capsys, edit):
        tmp_path, lines = files
        lines = list(lines)
        edit(lines)
        (tmp_path / "edited.dec").write_text("\n".join(lines) + "\n")
        code = main(["verify", str(tmp_path / "g.graph"), str(tmp_path / "edited.dec")])
        return code, capsys.readouterr()

    @staticmethod
    def retokened(at, edit):
        def apply(lines):
            lines[at - 1] = " ".join(edit(lines[at - 1].split()))

        return apply

    @pytest.mark.parametrize("edit, message", [
        (retokened(22, lambda t: t[:-1]), "line 22: expected 4 values, got 3"),
        (retokened(20, lambda t: t[:-1]), "line 20: expected 4 values, got 3"),
        (retokened(21, lambda t: ["x", *t[1:]]), "line 21: bad numeric value in 'x 4.99"),
        (retokened(20, lambda t: ["values", *t[1:]]), "line 20: expected 'eigenvalues' line, got 'values 3.0"),
        (retokened(13, lambda t: t[:-1] + ["5"]), "line 13: expected 'axis 3 basis 4', got 'axis 3 basis 5'"),
        (retokened(13, lambda t: ["axis", "2", *t[2:]]), "line 13: expected 'axis 3 basis 4', got 'axis 2 basis 4'"),
        (retokened(25, lambda t: ["factor", *t[1:]]), "line 25: expected 'pattern 1 order 2', got 'factor 1 order 2'"),
        (retokened(3, lambda t: ["terms", "63"]), "line 3: terms 63 does not match the 64 terms of the basis"),
        (retokened(27, lambda t: ["1", "0.0"]), "line 27: bad integer value in '1 0.0'"),
        (retokened(26, lambda t: ["0", "9" * 20]), f"line 26: bad integer value in '0 {'9' * 20}'"),
        (retokened(28, lambda t: [*t[:-1], "3.0"]), "line 28: bad integer value in 'degrees 3 3.0'"),
        (retokened(28, lambda t: t[:-1]), "line 28: expected 2 values, got 1"),
        (retokened(6, lambda t: ["weight", "x"]), "line 6: bad numeric value in 'weight x'"),
        (retokened(6, lambda t: [*t, "0.5"]), "line 6: expected 1 values, got 2"),
        (retokened(6, lambda t: ["weights", *t[1:]]), "line 6: expected 'weight' line, got 'weights 1.5625"),
        (lambda lines: lines.pop(13), "line 14: expected 'eigenvalues' line, got '1.0000000000000000e+00 0.0"),
        (lambda lines: lines.append("degrees 3 3"), "line 29: trailing content 'degrees 3 3'"),
        # A cut record names the line after its last content line.
        (lambda lines: lines.pop(27), "line 28: unexpected end of decomposition record"),
        # Each line is judged as it is taken: a block's first failing line is named.
        (lambda lines: (
            TestBasisRecord.retokened(21, lambda t: ["x", *t[1:]])(lines),
            TestBasisRecord.retokened(23, lambda t: t[:-1])(lines),
        ), "line 21: bad numeric value in 'x 4.99"),
        (lambda lines: (
            TestBasisRecord.retokened(23, lambda t: ["x", *t[1:]])(lines),
            TestBasisRecord.retokened(22, lambda t: t[:-1])(lines),
        ), "line 22: expected 4 values, got 3"),
        (lambda lines: (
            TestBasisRecord.retokened(22, lambda t: ["nan", "1e999", "-inf", "x"])(lines),
            lines.__delitem__(slice(23, None)),
        ), "line 22: bad numeric value in 'nan 1e999 -inf x'"),
        (lambda lines: (
            TestBasisRecord.retokened(22, lambda t: ["nan", "1e999", "-inf", "-0"])(lines),
            lines.__delitem__(slice(23, None)),
        ), "line 24: unexpected end of decomposition record"),
    ], ids=[
        "short-vector-row", "short-eigenvalues", "bad-float", "bad-eigenvalues-keyword",
        "axis-header-order", "axis-header-axis", "pattern-header", "terms-count",
        "non-integer-pattern", "pattern-out-of-range", "non-integer-degree", "short-degrees",
        "bad-weight", "two-weights", "weight-keyword",
        "missing-eigenvalues-line", "trailing-content", "missing-degrees-line",
        "bad-float-before-short-row", "short-row-before-bad-float", "bad-float-before-the-end",
        "special-floats-before-the-end",
    ])
    def test_malformed_line_is_named(self, files, capsys, edit, message):
        code, captured = self.verify(files, capsys, edit)
        assert code == 4 and captured.out == ""
        assert f"edited.dec: {message}" in captured.err
        lines = list(files[1])
        edit(lines)
        with pytest.raises(graphsep.GraphFormatError) as error:
            graphsep.parse_decomposition("\n".join(lines) + "\n")
        assert error.value.line == int(message.split(":")[0].split()[1])

    @pytest.mark.parametrize("edit", [
        # The first entry, 0.5, of axis 4's first eigenvector: trace 1 + 5e-10.
        retokened(21, lambda t: [repr((1 + 1e-9) * float(t[0])), *t[1:]]),
        retokened(20, lambda t: ["eigenvalues", "3.5", *t[2:]]),
        retokened(26, lambda t: ["0", "0"]),
        retokened(28, lambda t: ["degrees", "3", "4"]),
        retokened(6, lambda t: ["weight", repr(1.5 * float(t[1]))]),
        # inf times a zero eigenvalue: the expansion warns of nothing.
        retokened(20, lambda t: ["eigenvalues", "inf", *t[2:4], "0"]),
        retokened(28, lambda t: ["degrees", "0", "0"]),
    ], ids=["eigenvector-entry", "eigenvalue", "pattern-entry", "degree", "weight-x1.5", "eigenvalue-inf", "degrees-0"])
    @pytest.mark.filterwarnings("error")
    def test_edited_value_fails_verification(self, files, capsys, edit):
        code, captured = self.verify(files, capsys, edit)
        assert code == 1
        assert "verified=fail" in captured.out and "verified=pass" not in captured.out

    def test_respelt_record_verifies(self, files, capsys):
        # CRLF, a comment, a blank line, tabs and repr spellings read alike.
        def respell(lines):
            lines[5] = "weight\t" + repr(float(lines[5].split()[1]))
            lines[20] = " ".join(repr(float(x)) for x in lines[20].split())
            lines.insert(24, "# F_1 and the degrees")
            lines.insert(7, "")
            lines[:] = ["\r\n".join(lines)]

        code, captured = self.verify(files, capsys, respell)
        assert code == 0 and "verified=pass" in captured.out


class TestDecomposeCertificates:
    """decompose certifies once, by certify_decomposition.  A forged
    eigenvalue or layer degree makes the factored certificate decline, and
    the dense reference path refuses the grid: exit 3, no record, nothing on
    stdout, and the dense path's witness on stderr."""

    @pytest.fixture
    def theorem_graph(self, tmp_path):
        path = tmp_path / "t.graph"
        assert main(["gen", "theorem", "--dims", "4,2,2", "--seed", "0", "-o", str(path)]) == 0
        return path

    def refuse(self, graph_path, monkeypatch, capsys):
        dense = []
        original = separability.verify_decomposition

        def counting(*args, **kwargs):
            dense.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(separability, "verify_decomposition", counting)
        capsys.readouterr()
        dec_path = graph_path.with_suffix(".dec")
        assert main(["decompose", str(graph_path), str(dec_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not dec_path.exists()
        assert len(dense) == 1
        assert captured.err.startswith("construction failed: decomposition failed verification: ")
        return captured.err

    def test_eigenvalue_above_row_sum_exit_3(self, workdir, monkeypatch, capsys):
        # m222 has F_3 = I: row sum 1, here given an eigenvalue of 2, which
        # leaves the first factors of its terms indefinite.
        original = separability.spectral_decomposition

        def inflated(matrix):
            eig = original(matrix)
            values = eig.eigenvalues.copy()
            values[0] = inf_norm(matrix) + 1.0
            return Eigendecomposition(values, eig.eigenvectors)

        monkeypatch.setattr(separability, "spectral_decomposition", inflated)
        err = self.refuse(workdir / "m222.graph", monkeypatch, capsys)
        assert "term 1 factor 1: not PSD (min eigenvalue -1.500e+00)" in err

    @pytest.mark.parametrize("change, witness", [
        (-1, "factor 1: not PSD"),
        (+1, "reassembly residual"),
    ])
    def test_patched_layer_degree_exit_3(self, theorem_graph, monkeypatch, capsys, change, witness):
        # One layer degree below r_1(i_1) prod_k |F_k|_inf leaves a mixing
        # matrix in top layer 2 (0-based) indefinite; one above keeps them
        # dominant, and the decomposition then misses rho.
        original = separability.check_theorem_conditions

        def patched(graph):
            report = original(graph)
            degrees = list(report.layer_degrees)
            degrees[2] += change
            return replace(report, layer_degree_sets=tuple((d,) for d in degrees))

        monkeypatch.setattr(separability, "check_theorem_conditions", patched)
        assert witness in self.refuse(theorem_graph, monkeypatch, capsys)

    def test_no_dense_dominance_check(self, theorem_graph, monkeypatch, capsys):
        # Dominance is the factored certificate's Gershgorin test, one
        # comparison per top row, not a check of each mixing matrix.
        calls = []
        original = linalg.is_diagonally_dominant

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (graphsep, linalg, separability, cli):
            if getattr(module, "is_diagonally_dominant", None) is original:
                monkeypatch.setattr(module, "is_diagonally_dominant", counting)
        assert main(["decompose", str(theorem_graph), str(theorem_graph.with_suffix(".dec"))]) == 0
        assert calls == []


class TestGen:
    def test_gen_theorem_passes_check(self, tmp_path, capsys):
        out = tmp_path / "t.graph"
        assert main(["gen", "theorem", "--dims", "2,2,2", "--seed", "7", "-o", str(out)]) == 0
        assert main(["check", str(out), "theorem-conditions"]) == 0

    def test_gen_psym_passes_check(self, tmp_path):
        out = tmp_path / "p.graph"
        code = main(
            ["gen", "psym", "--dims", "2,3,2", "--seed", "1", "--budget", "6", "-o", str(out)]
        )
        assert code == 0
        assert main(["check", str(out), "partial-sym", "--axis", "1"]) == 0

    def test_gen_dsym_breaks_conditions(self, tmp_path):
        out = tmp_path / "d.graph"
        assert main(["gen", "dsym", "--dims", "2,2,2", "--seed", "3", "-o", str(out)]) == 0
        assert main(["check", str(out), "degree-sym"]) == 0
        assert main(["check", str(out), "theorem-conditions"]) == 1

    def test_gen_stdout_and_determinism(self, capsys):
        assert main(["gen", "theorem", "--dims", "2,2,2", "--seed", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "theorem", "--dims", "2,2,2", "--seed", "2"]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("dims 2 2 2\n")

    def test_pipeline_decompose_generated(self, tmp_path):
        graph_path = tmp_path / "g.graph"
        dec_path = tmp_path / "g.dec"
        for seed in (0, 1, 2):
            assert (
                main(["gen", "theorem", "--dims", "2,2,3", "--seed", str(seed), "-o", str(graph_path)])
                == 0
            )
            assert main(["decompose", str(graph_path), str(dec_path)]) == 0
            assert main(["verify", str(graph_path), str(dec_path)]) == 0


class TestEnvCap:
    def test_cap_override_allows_large_profile(self, tmp_path, monkeypatch, capsys):
        text = "dims 2 513\n" + "e 1 514\n"
        path = tmp_path / "wide.graph"
        path.write_text(text)
        assert main(["build", str(path), "--matrix", "A"]) == 4
        assert "exceeds the cap" in capsys.readouterr().err
        monkeypatch.setenv("GRAPHSEP_MAX_VERTICES", "2048")
        assert main(["build", str(path), "--matrix", "A"]) == 0


class TestParserReuse:
    def test_one_parser_serves_every_call(self, workdir, capsys):
        # The parser is built once per process; no call may leave an option
        # behind for the next one, such as --axis 2 for a default-axis check.
        w = str(workdir)
        sequence = [
            (["check", f"{w}/m222.graph", "degree-sym", "--axis", "2", "--format", "kv"], 0),
            (["check", f"{w}/m222.graph", "degree-sym", "--format", "kv"], 0),
            (["check", f"{w}/m222.graph", "no-such-property"], 4),
            (["decompose", f"{w}/m222.graph", f"{w}/m222.dec", "--tol", "1e-6"], 0),
            (["verify", f"{w}/empty.graph", f"{w}/m222.dec"], 2),
            (["verify", f"{w}/m222.graph", f"{w}/m222.dec"], 0),
            (["build", f"{w}/k2.graph", "--matrix", "L"], 0),
            (["gen", "theorem", "--dims", "2,2,2", "--seed", "1"], 0),
            (["check", f"{w}/k2.graph", "partial-sym"], 0),
        ]
        parser = cli.build_parser()
        rounds = []
        for _ in range(3):
            outputs = []
            for argv, code in sequence:
                assert main(argv) == code, argv
                captured = capsys.readouterr()
                outputs.append((captured.out, captured.err))
            rounds.append(outputs)
        assert cli.build_parser() is parser
        assert rounds[1] == rounds[0] and rounds[2] == rounds[0]
        assert "axis=2" in rounds[0][0][0].splitlines()
        assert "axis=1" in rounds[0][1][0].splitlines()
        assert "invalid choice" in rounds[0][2][1]


# argv lists for the dispatch test: those that parse, then those that end in
# help or a usage error.
PARSED_ARGV = [
    ["build", "g.graph"],
    ["build", "g.graph", "--matrix", "rho_q"],
    ["check", "g.graph", "theorem-conditions"],
    ["check", "g.graph", "partial-sym", "--axis", "2", "--format", "kv"],
    ["check", "--format=kv", "g.graph", "degree-sym", "--axis", "-1"],
    ["check", "--", "g.graph", "gtpt-identity"],
    ["decompose", "g.graph", "g.dec"],
    ["decompose", "g.graph", "g.dec", "--tol", "1e-6"],
    ["verify", "g.graph", "g.dec", "--tol", "2.5e-7"],
    ["gen", "theorem", "--dims", "2,2,2"],
    ["gen", "psym", "--dims", "2,4", "--budget", "3", "--seed", "7", "-o", "x.graph"],
]
REFUSED_ARGV = [
    ["--help"],
    ["-h"],
    *([command, "-h"] for command in ("build", "check", "decompose", "verify", "gen")),
    ["check", "g.graph", "partial-sym", "--help"],
    [],
    ["no-such-command", "g.graph"],
    ["check", "g.graph", "no-such-property"],
    ["check", "g.graph"],
    ["decompose", "g.graph", "g.dec", "--tol", "0"],
    ["verify", "g.graph", "g.dec", "--tol", "nan"],
    ["verify", "g.graph", "g.dec", "--tol", "x"],
    ["gen", "psym", "--dims", "2,2", "--budget", "-1"],
    ["gen", "psym", "--dims", "2,2", "--budget", "1.5"],
    ["gen", "theorem"],
    ["check", "g.graph", "partial-sym", "--axis", "one"],
    ["check", "g.graph", "partial-sym", "--axis"],
    ["verify", "g.graph", "g.dec", "extra"],
    ["build", "g.graph", "--no-such-option"],
    ["check", "g.graph", "partial-sym", "extra", "--no-such-option", "--axis", "3"],
]


class TestDispatch:
    """``main`` parses a known command with that command's parser; every
    argv must end as the full parser's ``parse_args`` ends it."""

    @pytest.fixture
    def recording(self, monkeypatch):
        # A parser of its own whose handlers keep the Namespace they get.
        parser = cli.build_parser.__wrapped__()
        seen = []

        def record(args):
            seen.append(args)
            return 0

        for command in parser.commands.values():
            command.set_defaults(handler=record)
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        return seen

    @staticmethod
    def captured(call, capsys):
        """(exit code, stdout, stderr, result) of a call that may exit."""
        try:
            result, code = call(), 0
        except SystemExit as exc:
            result, code = None, int(exc.code or 0)
        out, err = capsys.readouterr()
        return code, out, err, result

    @pytest.mark.parametrize("argv", PARSED_ARGV, ids=" ".join)
    def test_parsed_argv(self, argv, recording, capsys):
        code, out, err, expected = self.captured(
            lambda: cli.build_parser().parse_args(argv), capsys
        )
        assert (code, out, err) == (0, "", "")
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        assert recording == [expected]
        assert recording[0].command == argv[0]

    @pytest.mark.parametrize("argv", REFUSED_ARGV, ids=" ".join)
    def test_refused_argv(self, argv, recording, capsys):
        expected = self.captured(lambda: cli.build_parser().parse_args(argv), capsys)
        assert expected[0] in (0, 4) and expected[3] is None
        assert (main(argv), *capsys.readouterr()) == expected[:3]
        assert recording == []
