"""Command-line interface: formats, determinism and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverkit
from quiverkit.cli import main


ANGULATION_SIZES = [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1)]
# Sign-skew-symmetric, not skew-symmetrizable: d_1 = 2 d_2 = 2 d_3 and d_1 = d_3.
NOT_SYMMETRIZABLE = "[[0,1,-1],[-2,0,1],[1,-1,0]]"
# verify's stdout at the default cap, with each check's seconds masked.
VERIFY_STDOUT = """\
[PASS] hexagon-quiver (0.123s): 9 vertices, 12 arrows, exact match
[PASS] octagon-vertices (0.123s): vertex set of gamma(3,2) = [(1, 4), (1, 6), (2, 5), (2, 7), (3, 6), (3, 8), (4, 7), (5, 8)]
[PASS] octagon-power-components (0.123s): component sizes [8, 6, 6]; (1,4)-component is gamma(3,2)
[PASS] power-theorem-sweep (0.123s): 23 pairs (n,m) with n*m+2 <= 14, all equal to gamma(n,m); closed-form powers equal the sectional-path count
[PASS] power-stability-sweep (0.123s): 36 powers validated, all stable
[PASS] orbit-model-pinning (0.123s): 23 quotients match gamma(k+1,m), incl. (3,1,1) and (2,1,2)
[PASS] mutation-involution (0.123s): 200 random matrices and all A_1..A_3 seeds involutive
[PASS] mutation-closure (0.123s): A_2 -> 5 variables, A_3 -> 9, all Laurent: True
[PASS] counting (0.123s): variable and cluster counts equal diagonal and triangulation counts for n in 1..4
[PASS] angulations (0.123s): Catalan counts 2,5,14,42,132 and 12 octagon quadrangulations
[PASS] row-property (0.123s): each row of gamma(n*m,1) sits in one component for (2,3) and (3,3)
[PASS] classification-hypothesis (0.123s): principal = gamma(n,m), the others follow the component law: (n,m)=(2,3): 16->(k=2,s=5,r=2); (n,m)=(4,3): 56->(k=4,s=9,r=2); (n,m)=(2,5): 24->(k=2,s=6,r=4), 24->(k=2,s=6,r=4); (n,m)=(3,2): 6->(k=3,s=0,r=1), 6->(k=3,s=0,r=1); (n,m)=(2,4): 10->(k=2,s=2,r=2), 10->(k=2,s=2,r=2), 10->(k=2,s=2,r=2)
all hard checks passed
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGamma:
    def test_json_hexagon(self, capsys):
        code, out, _ = run(capsys, "gamma", "--n", "4", "--m", "1", "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "quiverkit/1"
        assert len(payload["vertices"]) == 9
        assert ["(1,3)", "(1,4)"] in payload["arrows"]
        assert payload["tau"]["(2,4)"] == "(1,3)"

    def test_dot_octagon(self, capsys):
        code, out, _ = run(capsys, "gamma", "--n", "3", "--m", "2", "--emit", "dot")
        assert code == 0
        assert out.startswith("digraph gamma_3_2 {")
        assert out.count('style=dashed, label="tau"') == 8

    def test_usage_error_for_small_polygon(self, capsys):
        code, _, err = run(capsys, "gamma", "--n", "1", "--m", "1")
        assert code == 2
        assert "n >= 2" in err

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "gamma", "--n", "5", "--m", "2")
        _, second, _ = run(capsys, "gamma", "--n", "5", "--m", "2")
        assert first == second


class TestPower:
    def test_components_json(self, capsys):
        code, out, _ = run(
            capsys, "power", "--n", "6", "--m", "2", "--components"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 2
        assert [len(c["vertices"]) for c in payload["components"]] == [8, 6, 6]

    def test_whole_power_quiver(self, capsys):
        code, out, _ = run(capsys, "power", "--n", "6", "--m", "2")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["vertices"]) == 20
        assert ["(1,4)", "(1,6)"] in payload["arrows"]

    def test_components_dot_emits_one_digraph_each(self, capsys):
        code, out, _ = run(
            capsys, "power", "--n", "6", "--m", "2", "--components", "--emit", "dot"
        )
        assert code == 0
        assert out.count("digraph component_") == 3


class TestClassify:
    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", "3", "--m", "2", "--report", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["principal"] == {"size": 8, "iso_gamma": True}
        assert payload["others"] == [
            {"size": 6, "match": {"k": 3, "s": 0, "r": 1}},
            {"size": 6, "match": {"k": 3, "s": 0, "r": 1}},
        ]

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--m", "2")
        assert code == 0
        assert out == (
            "power(gamma(6,1), 2):\n"
            "  principal component: 8 vertices, gamma(3,2) match: True\n"
            "  component of 6 vertices: orbit_quiver(k=3, s=0, r=1)\n"
            "  component of 6 vertices: orbit_quiver(k=3, s=0, r=1)\n"
        )

    def test_text_report_counts_further_matches(self, capsys):
        # tau^-6 ∘ [4] and tau^-9 ∘ [2] are one automorphism of the 2-row strip.
        code, out, _ = run(capsys, "classify", "--n", "2", "--m", "5")
        assert code == 0
        assert out == (
            "power(gamma(10,1), 5):\n"
            "  principal component: 6 vertices, gamma(2,5) match: True\n"
            + "  component of 24 vertices: orbit_quiver(k=2, s=6, r=4) (+1 more)\n" * 2
        )

    def test_text_report_of_an_unmatched_component(self, capsys, monkeypatch):
        law = quiverkit.orbit._component_law
        monkeypatch.setattr(
            quiverkit.orbit,
            "_component_law",
            lambda n, m: [(k, S + 1, rho) for k, S, rho in law(n, m)],
        )
        code, out, _ = run(capsys, "classify", "--n", "2", "--m", "3")
        assert code == 0
        assert out == (
            "power(gamma(6,1), 3):\n"
            "  principal component: 4 vertices, gamma(2,3) match: True\n"
            "  component of 16 vertices: unmatched\n"
        )

    def test_cap_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("QUIVERKIT_CAP", "10")
        code, _, err = run(capsys, "classify", "--n", "4", "--m", "3")
        assert code == 3
        assert "size cap" in err

    @pytest.mark.parametrize("argv", [("classify", "--n", "3", "--m", "2"), ("verify",)])
    def test_bad_cap_variable_is_a_usage_error(self, capsys, monkeypatch, argv):
        # verify catches every exception per check; the cap is read before it runs.
        monkeypatch.setenv("QUIVERKIT_CAP", "abc")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: QUIVERKIT_CAP must be an integer, got 'abc'\n"


class TestCaps:
    """A cap below 1, by flag or by QUIVERKIT_CAP, is a usage error."""

    # The id is the one this row had beside the deleted classify and
    # angulations --cap rows.
    @pytest.mark.parametrize(
        "argv",
        [pytest.param(("mutate", "--matrix", "[[0,1],[-1,0]]", "--enumerate"), id="argv2")],
    )
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_non_positive_cap_is_a_usage_error(self, capsys, argv, cap):
        code, out, err = run(capsys, *argv, "--cap", cap)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be positive" in err

    @pytest.mark.parametrize("raw", ["0", "-5"])
    @pytest.mark.parametrize("argv", [("classify", "--n", "3", "--m", "2"), ("verify",)])
    def test_non_positive_cap_variable_is_a_usage_error(self, capsys, monkeypatch, argv, raw):
        monkeypatch.setenv("QUIVERKIT_CAP", raw)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: QUIVERKIT_CAP must be positive, got {raw!r}\n"

    @pytest.mark.parametrize(
        "argv", [("angulations", "--n", "3"), ("classify", "--n", "3", "--m", "2")]
    )
    def test_cap_flag_is_unknown(self, capsys, argv):
        # angulations has a computed bound and classify reads QUIVERKIT_CAP:
        # a --cap there is refused, never ignored.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cap", "5"])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert "unrecognized arguments: --cap 5" in out.err

    @pytest.mark.parametrize("walk", [("--steps", "1"), ()], ids=["steps", "no-mode"])
    @pytest.mark.parametrize("cap", ["5", "-5"])
    def test_mutate_cap_without_enumerate_is_a_usage_error(self, capsys, walk, cap):
        # The seed cap bounds only the closure: elsewhere it is refused, never ignored.
        code, out, err = run(capsys, "mutate", "--matrix", "[[0,1],[-1,0]]", *walk, "--cap", cap)
        assert (code, out) == (2, "")
        assert err == "error: --cap applies only to --enumerate\n"


class TestMutate:
    def test_steps(self, capsys):
        code, out, _ = run(
            capsys, "mutate", "--matrix", "[[0,1],[-1,0]]", "--steps", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cluster"] == ["(u_2 + 1) / u_1", "u_2"]
        assert payload["matrix_after"] == [[0, -1], [1, 0]]

    def test_steps_with_enumerate_is_a_usage_error(self, capsys):
        # Together, --enumerate would run the closure and ignore the walk.
        with pytest.raises(SystemExit) as exc:
            main(["mutate", "--matrix", "[[0,1],[-1,0]]", "--enumerate", "--steps", "1,2"])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert "argument --steps: not allowed with argument --enumerate" in out.err

    def test_enumerate(self, capsys):
        code, out, _ = run(
            capsys, "mutate", "--matrix", "[[0,1],[-1,0]]", "--enumerate"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 5
        assert payload["cap_reached"] is False
        assert "(u_1 + u_2 + 1) / u_1*u_2" in payload["variables"]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                (
                    "--enumerate",
                    "--matrix",
                    "[[0,1,0,0,0],[-1,0,1,0,0],[0,-1,0,1,0],[0,0,-1,0,1],[0,0,0,-1,0]]",
                ),
                "2fc62ef9e609825ab57a0fcdc3dc4ec5247035b40303cf7a56065b18ccfe2bdd",
                id="A_5",
            ),
            pytest.param(
                ("--enumerate", "--matrix", "[[0,1,0,0],[-1,0,1,1],[0,-1,0,0],[0,-1,0,0]]"),
                "8092faf955736243cfad87bee169c15dc4f70f15c9222aebe6b74fe79c404066",
                id="D_4",
            ),
            pytest.param(
                ("--enumerate", "--matrix", "[[0,1,0],[-2,0,1],[0,-1,0]]"),
                "b780adcb4012b4b9963d3fd5c7d4ca10f657dd90249fe60fc13f800deffb6063",
                id="B_3",
            ),
            pytest.param(
                ("--enumerate", "--matrix", "[[0,1],[-3,0]]"),
                "8f0ee3a638d18c1c898dbe91f43f0f4084ddfaf7bbc4dc747198a22f3eb112a3",
                id="G_2",
            ),
            pytest.param(
                ("--enumerate", "--matrix", "[[0,1,0,0],[-1,0,1,0],[0,-2,0,1],[0,0,-1,0]]"),
                "0efcec8a596ea939315177513fdd647350855d9a4cf2d7a010c3111464b676ce",
                id="F_4",
            ),
            pytest.param(
                (
                    "--enumerate",
                    "--matrix",
                    "[[0,1,0,0,0,0],[-1,0,1,0,0,0],[0,-1,0,1,0,1],"
                    "[0,0,-1,0,1,0],[0,0,0,-1,0,0],[0,0,-1,0,0,0]]",
                ),
                "98101af9835f817ffddab28680b6217bd4ffae86d09fdd5610346322a9268f08",
                id="E_6",
            ),
            pytest.param(
                ("--matrix", "[[0,3,-1],[-2,0,4],[1,-1,0]]", "--steps", "1,2,3,1,2"),
                "c969cbf20b0b766944144bb224411f615afc351e57c21f0f0c809f3513d98107",
                id="non-Laurent-steps",
            ),
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        # SHA-256 of stdout.  The walk ends with two entries whose
        # denominators are not monomials, so the pins cover the cancelling
        # division as well as the exact one.
        code, out, _ = run(capsys, "mutate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_json_matrix(self, capsys):
        code, _, err = run(capsys, "mutate", "--matrix", "[[0,1],")
        assert code == 2

    def test_non_sign_skew_matrix(self, capsys):
        code, _, err = run(capsys, "mutate", "--matrix", "[[0,1],[1,0]]")
        assert code == 2
        assert "sign-skew" in err

    def test_enumerate_needs_a_skew_symmetrizable_matrix(self):
        # A fresh interpreter with a time limit: a closure that accepted this
        # matrix would run without end at the default seed cap.
        proc = _fresh_python(
            "import sys\nfrom quiverkit.cli import main\nsys.exit(main(sys.argv[1:]))",
            "mutate", "--enumerate", "--matrix", NOT_SYMMETRIZABLE,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: matrix is not skew-symmetrizable")
        assert proc.stderr.count("\n") == 1

    def test_steps_take_any_sign_skew_symmetric_matrix(self, capsys):
        code, out, _ = run(capsys, "mutate", "--matrix", NOT_SYMMETRIZABLE, "--steps", "1,2,1,3,2,3")
        assert code == 0
        expected = {
            "schema": "quiverkit/1",
            "matrix": [[0, 1, -1], [-2, 0, 1], [1, -1, 0]],
            "steps": [1, 2, 1, 3, 2, 3],
            "cluster": [
                "(u_2^2*u_3 + u_1^2 + 2*u_1*u_3 + u_3^2) / u_1*u_2^2",
                "(u_1 + u_3) / u_2",
                "(u_1^2*u_2*u_3 + u_1*u_2*u_3^2 + u_2^2*u_3^2 + u_1^2*u_3 + 2*u_1*u_3^2 + u_3^3)"
                " / (u_1*u_2^2 + u_2^3 + u_1*u_2 + u_2*u_3)",
            ],
            "matrix_after": [[-1, 1, 1], [-3, 0, -1], [1, 0, 0]],
        }
        assert out == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize(
        "matrix",
        [
            "[[0,1e30],[-1,0]]",
            "[[0,100000000000000000000],[-1,0]]",
            '{"a":1}',
            "[[0,1.5],[-1,0]]",
        ],
    )
    def test_non_integer_entries_are_usage_errors(self, capsys, matrix):
        code, out, err = run(capsys, "mutate", "--matrix", matrix)
        assert code == 2
        assert out == ""
        assert "integers within int64" in err

    @pytest.mark.parametrize("matrix", ["[]", "[[]]"])
    def test_empty_matrix_is_not_square(self, capsys, matrix):
        code, out, err = run(capsys, "mutate", "--matrix", matrix)
        assert code == 2
        assert out == ""
        assert "must be square" in err

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ("5", "must be square"),
            ("[1,2]", "must be square"),
            ("null", "integers within int64"),
            ('"ab"', "integers within int64"),
            ("[[0,1],[-1,0],[0,0]]", "must be square"),
            ("[[0,1,2],[-1,0]]", "must be square"),
            ("[[[0]]]", "must be square"),
            ("[[0,true],[-1,0]]", "integers within int64"),
            ("[[false,true],[true,false]]", "integers within int64"),
        ],
    )
    def test_malformed_matrix_is_a_usage_error(self, capsys, matrix, message):
        code, out, err = run(capsys, "mutate", "--matrix", matrix)
        assert code == 2
        assert out == ""
        assert err.startswith("error: exchange matrix ") and message in err
        assert err.count("\n") == 1

    def test_deeply_nested_matrix_is_a_usage_error(self, capsys):
        # json.loads raises RecursionError past the interpreter's depth limit.
        code, out, err = run(capsys, "mutate", "--matrix", "[" * 5000 + "]" * 5000)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --matrix ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("steps", ["x", "1,x", "1.5", "1,,2;3"])
    def test_non_integer_steps_are_usage_errors(self, capsys, steps):
        code, out, err = run(capsys, "mutate", "--matrix", "[[0]]", "--steps", steps)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --steps ") and "int()" not in err
        assert err.count("\n") == 1


_DEPENDENCY_PROBE = """
import contextlib, io, sys
before = {name.split(".")[0] for name in sys.modules}
from quiverkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["mutate", "--enumerate", "--matrix", "[[0,1,0],[-1,0,1],[0,-1,0]]"]) == 0
    assert main(["verify", "--only", "mutation"]) == 0
loaded = {name.split(".")[0] for name in sys.modules} - before - set(sys.stdlib_module_names)
print(" ".join(sorted(loaded)))
"""


def _fresh_python(code, *argv, timeout=120):
    """Run ``code`` in a fresh interpreter, as this test process has loaded
    the test tools."""
    src = str(Path(quiverkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_mutate_and_verify_load_only_declared_dependencies():
    # sympy brings mpmath, and gmpy2 when it is installed.
    proc = _fresh_python(_DEPENDENCY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"quiverkit", "sympy", "mpmath", "gmpy2"}, proc.stdout


_SYMPY_PROBE = """
import contextlib, io, sys
from quiverkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print("sympy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, loads_sympy",
    [
        (["gamma", "--n", "4"], False),
        (["power", "--n", "4", "--m", "2", "--components"], False),
        (["classify", "--n", "4", "--m", "3"], False),
        (["orbit", "--k", "3", "--s", "0", "--r", "1"], False),
        (["angulations", "--n", "4", "--m", "2"], False),
        (["mutate", "--enumerate", "--matrix", "[[0,1],[-1,0]]"], True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_only_mutation_loads_sympy(argv, loads_sympy):
    # sympy is imported when a mutation field is first built, not when the
    # package loads.
    proc = _fresh_python(_SYMPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(loads_sympy)]


A_2 = "[[0,1],[-1,0]]"


@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", "--n", "5", "--m", "2"),
        ("power", "--n", "6", "--m", "3"),
        ("power", "--n", "6", "--m", "3", "--components"),
        ("orbit", "--k", "3", "--s", "2", "--r", "1"),
        *(("angulations", "--n", str(n), "--m", str(m)) for n, m in ANGULATION_SIZES),
        ("classify", "--n", "3", "--m", "2", "--report", "json"),
        ("mutate", "--matrix", A_2, "--steps", "1,2"),
        ("mutate", "--matrix", A_2, "--enumerate"),
    ],
)
def test_json_output_is_canonical(capsys, argv):
    """Every JSON-emitting subcommand prints ``json.dumps(indent=2)`` of its payload."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestAngulations:
    @pytest.mark.parametrize("n, m", ANGULATION_SIZES)
    def test_payload(self, capsys, n, m):
        found = quiverkit.enumerate_angulations(n, m)
        payload = {
            "schema": "quiverkit/1",
            "n": n,
            "m": m,
            "count": len(found),
            "angulations": [[[i, j] for i, j in coll] for coll in found],
        }
        _, out, _ = run(capsys, "angulations", "--n", str(n), "--m", str(m))
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_hexagon_count(self, capsys):
        code, out, _ = run(capsys, "angulations", "--n", "4", "--m", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 14
        assert [[1, 3], [1, 4], [1, 5]] in payload["angulations"]

    def test_cap_exit_code(self, capsys):
        code, _, _ = run(capsys, "angulations", "--n", "15", "--m", "1")
        assert code == 3

    def test_cap_message_names_the_count_and_the_bound(self, capsys):
        code, out, err = run(capsys, "angulations", "--n", "13")
        assert (code, out) == (3, "")
        assert err == (
            "size cap: angulation enumeration capped at count * (n + m) <= 3000000: "
            "the 15-gon has 742900 3-angulations and n + m = 14\n"
        )

    def test_newly_bounded_polygon_runs(self, capsys):
        # An 18-gon with 43263 * 10 = 432630 under the bound.
        code, out, _ = run(capsys, "angulations", "--n", "8", "--m", "2")
        assert code == 0
        assert json.loads(out)["count"] == 43263

    @pytest.mark.parametrize(
        "argv, count",
        [(["--n", "14"], 2674440), (["--n", "15"], 9694845)],
        ids=["default-cap", "raised-cap"],
    )
    def test_count_bound_refuses_before_enumerating(self, argv, count):
        # A fresh interpreter with a time limit: an enumeration that started
        # would list millions of angulations, over a gigabyte each time.
        proc = _fresh_python(
            "import sys\nfrom quiverkit.cli import main\nsys.exit(main(sys.argv[1:]))",
            "angulations", *argv,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("size cap: ")
        assert f" has {count} 3-angulations" in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["--n", "1000000"], ["--n", "2", "--m", "100000"], ["--n", "3", "--m", "1000"]]
    )
    def test_huge_inputs_are_refused_at_once(self, argv):
        # Refused from the lower bound or one small binomial: neither a
        # listing nor a binomial of millions of digits fits the time limit.
        proc = _fresh_python(
            "import sys\nfrom quiverkit.cli import main\nsys.exit(main(sys.argv[1:]))",
            "angulations", *argv, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("size cap: ") and proc.stderr.count("\n") == 1


class TestOrbit:
    def test_six_vertex_quotient(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "--k", "3", "--s", "0", "--r", "1"
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["vertices"]) == 6

    def test_identity_rejected(self, capsys):
        code, _, _ = run(capsys, "orbit", "--k", "3", "--s", "0", "--r", "0")
        assert code == 2

    def test_empty_strip_rejected(self, capsys):
        code, out, err = run(capsys, "orbit", "--k", "0", "--s", "1", "--r", "1")
        assert (code, out, err) == (2, "", "error: need k >= 1, got k=0\n")


class TestVerify:
    def test_only_counting(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "counting")
        assert code == 0
        assert "[PASS] counting" in out

    def test_only_octagon_reproduces_decomposition(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "octagon")
        assert code == 0
        assert "[PASS] octagon-vertices" in out
        assert "component sizes [8, 6, 6]" in out

    def test_unknown_filter(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "nothing-here")
        assert code == 2

    @pytest.mark.parametrize("seed", ["2024", "7"])
    def test_stdout_is_pinned_and_seed_free(self, capsys, monkeypatch, seed):
        # Every check's detail text, passing ones included; --seed only
        # changes the random matrices, not the text.
        monkeypatch.delenv("QUIVERKIT_CAP", raising=False)
        code, out, _ = run(capsys, "verify", "--seed", seed)
        assert code == 0
        assert re.sub(r"\(\d+\.\d{3}s\)", "(0.123s)", out) == VERIFY_STDOUT


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "quiver.json"
        code, out, _ = run(
            capsys, "gamma", "--n", "4", "--m", "1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert len(payload["vertices"]) == 9

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_path_is_a_usage_error(self, tmp_path, capsys, where):
        target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
        code, out, err = run(
            capsys, "gamma", "--n", "4", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def _flags(**bounds):
    """argv tokens ``--name value``, each value in -1..bound."""
    names = list(bounds)
    return st.tuples(*(st.integers(-1, hi) for hi in bounds.values())).map(
        lambda vals: [tok for name, v in zip(names, vals) for tok in (f"--{name}", str(v))]
    )


_matrices = st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=k, max_size=k
    )
)

_argv = st.one_of(
    st.tuples(st.sampled_from(["gamma", "power", "classify", "angulations"]), _flags(n=8, m=3))
    .map(lambda t: [t[0], *t[1]]),
    _flags(n=8, m=3).map(lambda f: ["power", *f, "--components"]),
    _flags(k=8, s=3, r=3).map(lambda f: ["orbit", *f]),
    st.tuples(_matrices, st.lists(st.integers(0, 4), max_size=3)).map(
        lambda t: ["mutate", "--matrix", json.dumps(t[0]), "--steps", ",".join(map(str, t[1]))]
    ),
    _matrices.map(lambda rows: ["mutate", "--matrix", json.dumps(rows), "--enumerate", "--cap", "5"]),
    st.sampled_from(["hexagon", "nothing-here"]).map(lambda f: ["verify", "--only", f]),
)


class TestParser:
    def test_built_on_first_call_and_kept(self):
        proc = _fresh_python(
            "from quiverkit import cli\n"
            "print(cli._parser.cache_info().currsize)\n"
            "cli.main(['gamma', '--n', '3', '--out', '/dev/null'])\n"
            "cli.main(['gamma', '--n', '4', '--out', '/dev/null'])\n"
            "print(cli._parser.cache_info().misses)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]

    def test_a_rebound_command_runs(self, capsys, monkeypatch):
        from quiverkit import cli

        assert run(capsys, "orbit", "--k", "3", "--s", "2", "--r", "1")[0] == 0
        monkeypatch.setattr(cli, "_cmd_orbit", lambda args: 4)
        assert run(capsys, "orbit", "--k", "3", "--s", "2", "--r", "1")[0] == 4


class TestArgvFuzz:
    @given(argv=_argv, out=st.sampled_from([None, "file", "missing-dir", "directory"]))
    @settings(max_examples=120, deadline=None)
    def test_only_documented_exit_codes(self, tmp_path_factory, argv, out):
        base = tmp_path_factory.getbasetemp()
        targets = {"file": base / "out.txt", "missing-dir": base / "missing" / "x", "directory": base}
        if out is not None:
            argv = argv + ["--out", str(targets[out])]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), argv
        if argv[0] == "mutate" and "--enumerate" in argv and out in (None, "file"):
            # Entries in -2..2 and a cap of 5 stay far from every size bound.
            closable = quiverkit.ExchangeMatrix(json.loads(argv[2])).is_skew_symmetrizable()
            assert code == (0 if closable else 2), argv


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title):
    """The text of the README section ``## title``, up to the next section."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _code_blocks(section):
    """The four-space indented blocks of ``section``, dedented."""
    blocks = re.findall(r"(?:^    .*\n)+", section, re.MULTILINE)
    return [re.sub(r"^    ", "", b, flags=re.MULTILINE) for b in blocks]


class TestReadme:
    """The README's command-line examples run as written."""

    def test_every_example_exits_0(self, capsys, tmp_path):
        block = _code_blocks(_readme_section("Command line"))[0]
        examples = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert [argv[0] for argv in examples] == ["quiverkit"] * 7
        for i, argv in enumerate(examples):
            out = tmp_path / f"example_{i}.txt"
            code, stdout, stderr = run(capsys, *argv[1:], "--out", str(out))
            assert (code, stdout, stderr) == (0, "", ""), argv
            assert out.read_text(encoding="utf-8"), argv

    def test_classify_prints_the_readme_lines(self, capsys, tmp_path):
        section = _readme_section("Command line")
        command = re.search(r"`(classify [^`]*)` prints:", section).group(1)
        printed = _code_blocks(section)[1]
        assert command == "classify --n 4 --m 3" and len(printed.splitlines()) == 3
        out = tmp_path / "classify.txt"
        assert run(capsys, *shlex.split(command), "--out", str(out))[0] == 0
        assert out.read_text(encoding="utf-8") == printed

    def test_size_cap_example(self, capsys, tmp_path):
        found = re.search(
            r"`quiverkit ([^`]*)` exits (\d) with\s+`([^`]*)`", _readme_section("Size caps")
        )
        command, status, message = found.groups()
        assert (command, status) == ("angulations --n 15", "3")
        prefix = message.removesuffix("...")
        assert prefix.startswith("size cap: ") and prefix != message
        code, stdout, stderr = run(capsys, *shlex.split(command), "--out", str(tmp_path / "x"))
        assert (code, stdout) == (3, "") and stderr.startswith(prefix)
