import json
import math
import xml.etree.ElementTree as ET

import pytest

import clothofit.cli
from clothofit import ClothoidCurve, HermiteData, InternalConsistencyError, build_clothoid
from clothofit.cli import main


TEST3 = ["--x0", "3", "--y0", "6", "--theta0", "3.05433",
         "--x1", "6", "--y1", "6", "--theta1", "3.14159"]
TEST1 = ["--x0", "5", "--y0", "4", "--theta0", repr(math.pi / 3),
         "--x1", "5", "--y1", "6", "--theta1", repr(7 * math.pi / 6)]
SEMICIRCLE = ["--x0", "0", "--y0", "0", "--theta0", repr(math.pi / 2),
              "--x1", "2", "--y1", "0", "--theta1", repr(-math.pi / 2)]
LINE = ["--x0", "0", "--y0", "0", "--theta0", "0",
        "--x1", "3", "--y1", "0", "--theta1", "0"]
VERTICAL = ["--x0", "0", "--y0", "0", "--theta0", repr(math.pi / 2),
            "--x1", "0", "--y1", "3", "--theta1", repr(math.pi / 2)]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------- fit

def test_fit_record_schema(capsys):
    code, out = run(capsys, ["fit"] + TEST3)
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["kappa", "kappa_prime", "L", "A",
                            "iterations", "residual_g", "endpoint_error"]
    assert record["iterations"] <= 5
    assert record["endpoint_error"] <= 1e-12


def test_fit_matches_library(capsys):
    code, out = run(capsys, ["fit"] + TEST1)
    assert code == 0
    record = json.loads(out)
    fit = build_clothoid(HermiteData(5.0, 4.0, math.pi / 3, 5.0, 6.0, 7 * math.pi / 6))
    # JSON floats round-trip exactly
    assert record["kappa"] == fit.curve.kappa
    assert record["kappa_prime"] == fit.curve.kappa_prime
    assert record["L"] == fit.curve.L
    assert record["A"] == fit.A


def test_fit_degenerate_exit_code(capsys):
    code = main(["fit", "--x0", "1", "--y0", "1", "--theta0", "0.3",
                 "--x1", "1", "--y1", "1", "--theta1", "0.9"])
    assert code == 3


def test_fit_unrepresentable_chord_exit_code(capsys):
    # L^2 overflows at the first chord; 2A/L^2 at the second
    for x1, theta0, theta1 in (("1e200", "0.3", "-0.2"), ("1.5e-154", "1.2", "1.5")):
        code = main(["fit", "--x0", "0", "--y0", "0", "--theta0", theta0,
                     "--x1", x1, "--y1", "0", "--theta1", theta1])
        err = capsys.readouterr().err
        assert code == 3, x1
        assert "chord length" in err
        assert "Traceback" not in err


def test_fit_accepts_negative_exponent_values(capsys):
    # argparse on some Python versions reads -1e-3 as an option flag
    code, out = run(capsys, ["fit", "--x0", "-1e-3", "--y0", "0", "--theta0", "0.3",
                             "--x1", "4", "--y1", "1", "--theta1", "-2.5E-1"])
    assert code == 0
    fit = build_clothoid(HermiteData(-1e-3, 0.0, 0.3, 4.0, 1.0, -0.25))
    assert json.loads(out)["L"] == fit.curve.L


def test_fit_excluded_exit_code(capsys):
    code = main(["fit", "--x0", "0", "--y0", "0", "--theta0", repr(math.pi),
                 "--x1", "1", "--y1", "0", "--theta1", repr(-math.pi)])
    assert code == 4


def test_fit_non_convergence_exit_code(capsys, monkeypatch):
    # the linear guess needs two evaluated steps on this pose
    monkeypatch.setattr(clothofit.fitter, "_MAX_ITER", 1)
    code = main(["fit"] + TEST1 + ["--guess", "linear"])
    assert code == 5


def test_fit_other_fit_error_exit_code(capsys, monkeypatch):
    def spurious_root(data, guess):
        raise InternalConsistencyError("X_0 <= 0 at the computed root")

    monkeypatch.setattr(clothofit.cli, "build_clothoid", spurious_root)
    code = main(["fit"] + TEST1)
    err = capsys.readouterr().err
    assert code == 6
    assert err == "error: X_0 <= 0 at the computed root\n"
    assert "Traceback" not in err


def test_parse_errors_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fit", "--x0", "zebra", "--y0", "0", "--theta0", "0",
              "--x1", "1", "--y1", "0", "--theta1", "0"])
    assert info.value.code == 2
    # non-finite values parse as floats but are rejected as invalid input
    code = main(["fit", "--x0", "nan", "--y0", "0", "--theta0", "0",
                 "--x1", "1", "--y1", "0", "--theta1", "0"])
    assert code == 2
    code = main(["sample"] + LINE + ["--n", "1"])
    assert code == 2
    # the solve has no tolerance to set, and argparse's choices refuse an
    # unknown guess on every subcommand that takes one
    for argv in (["fit"] + LINE + ["--tol", "inf"],
                 ["grid-stats", "--grid-n", "2", "--tol", "nan"],
                 ["fit"] + LINE + ["--guess", "septic"],
                 ["sample"] + LINE + ["--guess", "septic"],
                 ["svg"] + LINE + ["--guess", "septic"],
                 ["grid-stats", "--grid-n", "2", "--guess", "septic"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    assert capsys.readouterr().err.count("invalid choice") == 4


def test_fit_out_file(tmp_path, capsys):
    path = tmp_path / "fit.json"
    code = main(["fit"] + TEST3 + ["--out", str(path)])
    assert code == 0
    record = json.loads(path.read_text())
    assert record["L"] > 0


@pytest.mark.parametrize("command", [["fit"] + TEST3, ["bench"], ["sample"] + TEST3,
                                     ["svg"] + TEST3, ["grid-stats", "--grid-n", "2"]])
def test_unwritable_out_exit_code(tmp_path, capsys, command):
    # a directory cannot be opened as the output file
    assert main(command + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------- sample

def test_sample_line_csv(capsys):
    code, out = run(capsys, ["sample"] + LINE + ["--n", "2"])
    assert code == 0
    assert out.endswith("\n")
    lines = out.strip().split("\n")
    assert lines[0] == "s,x,y,theta,kappa"
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[2].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0, 0.0]
    assert last == [3.0, 3.0, 0.0, 0.0, 0.0]


def test_sample_csv_round_trips_exactly(capsys):
    curve = build_clothoid(
        HermiteData(5.0, 4.0, math.pi / 3, 5.0, 6.0, 7 * math.pi / 6)).curve
    # at n = 12, 11 (L/11) rounds away from this curve's L; the s column
    # still ends at L, as the rows of curve.sample do
    for n in (7, 12):
        code, out = run(capsys, ["sample"] + TEST1 + ["--n", str(n)])
        assert code == 0
        lines = out.strip().split("\n")[1:]
        step = curve.L / (n - 1)
        expected_s = [i * step for i in range(n - 1)] + [curve.L]
        assert len(lines) == n
        for line, s, row in zip(lines, expected_s, curve.sample(n)):
            parsed = [float(v) for v in line.split(",")]
            assert parsed[0] == s
            assert tuple(parsed[1:]) == row


def test_sample_endpoint_row(capsys):
    code, out = run(capsys, ["sample"] + TEST1 + ["--n", "100"])
    assert code == 0
    lines = out.strip().split("\n")
    last = [float(v) for v in lines[-1].split(",")]
    assert math.hypot(last[1] - 5.0, last[2] - 6.0) <= 1e-10


def test_sample_circle_radius(capsys):
    code, out = run(capsys, ["sample"] + SEMICIRCLE + ["--n", "33"])
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        _, x, y, _, _ = (float(v) for v in line.split(","))
        assert math.hypot(x - 1.0, y - 0.0) == pytest.approx(1.0, abs=1e-10)


def test_sample_json(capsys):
    code, out = run(capsys, ["sample"] + LINE + ["--n", "3", "--format", "json"])
    rows = json.loads(out)
    assert len(rows) == 3
    assert list(rows[0]) == ["s", "x", "y", "theta", "kappa"]
    assert rows[2]["x"] == 3.0


def test_fit_sample_round_trip(capsys):
    # rebuild the curve from the fit record, then check its endpoint
    code, out = run(capsys, ["fit"] + TEST1)
    rec = json.loads(out)
    curve = ClothoidCurve(5.0, 4.0, math.pi / 3,
                          rec["kappa"], rec["kappa_prime"], rec["L"])
    x, y = curve.point_at(curve.L)
    assert math.hypot(x - 5.0, y - 6.0) <= 1e-10 * 2.0


# ---------------------------------------------------------------- svg

def polyline_vertices(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(ns + "polyline")
    assert len(polylines) == 1
    pts = polylines[0].attrib["points"].split()
    return [tuple(float(c) for c in p.split(",")) for p in pts], root, ns


def test_svg_line(capsys):
    # a chord of zero extent across it sits on the 800x600 plot's centre
    # line and spans the other side less a 30 px margin (5% of 600) at
    # each end; svg's y axis points down, so a chord along +y starts low
    for pose, expected in ((LINE, [(30.0, 300.0), (400.0, 300.0), (770.0, 300.0)]),
                           (VERTICAL, [(400.0, 570.0), (400.0, 300.0), (400.0, 30.0)])):
        code, out = run(capsys, ["svg"] + pose + ["--n", "3"])
        assert code == 0
        vertices, root, ns = polyline_vertices(out)
        assert len(vertices) == 3
        assert [c for v in vertices for c in v] == pytest.approx(
            [c for v in expected for c in v], abs=1e-6)
        # start and end markers
        markers = [(float(c.attrib["cx"]), float(c.attrib["cy"]))
                   for c in root.findall(ns + "circle")]
        assert markers == [vertices[0], vertices[-1]]


def test_svg_well_formed(capsys):
    code, out = run(capsys, ["svg"] + TEST1)
    assert code == 0
    vertices, root, _ = polyline_vertices(out)
    assert root.attrib["version"] == "1.1"
    w = float(root.attrib["width"])
    h = float(root.attrib["height"])
    for x, y in vertices:
        assert -1e-6 <= x <= w + 1e-6
        assert -1e-6 <= y <= h + 1e-6


def test_svg_rejects_non_finite_size(capsys):
    assert main(["svg"] + LINE + ["--width", "nan"]) == 2
    assert main(["svg"] + LINE + ["--height", "inf"]) == 2
    assert capsys.readouterr().out == ""


def test_svg_preserves_aspect_ratio(capsys):
    # the semicircle spans 2 x 1 in the plane
    code, out = run(capsys, ["svg"] + SEMICIRCLE + ["--n", "201",
                                                    "--width", "640", "--height", "480"])
    vertices, _, _ = polyline_vertices(out)
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    aspect = (max(xs) - min(xs)) / (max(ys) - min(ys))
    assert aspect == pytest.approx(2.0, rel=0.01)


# ---------------------------------------------------------------- bench

def test_bench(capsys):
    code, out = run(capsys, ["bench"])
    assert code == 0
    lines = out.strip().split("\n")
    # 6 arc cases + 2 x 10 regime cases + header + summary
    assert len(lines) == 28
    assert lines[-1] == "all_within_bounds yes"
    assert all(" yes" in line for line in lines[1:-1])


def test_bench_out_of_bounds_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(clothofit.cli, "BENCH_MAX_ERROR", 0.0)
    code, out = run(capsys, ["bench"])
    assert code == 1
    assert out.strip().split("\n")[-1] == "all_within_bounds NO"


# ---------------------------------------------------------------- grid

def test_grid_stats_minimal(capsys):
    code, out = run(capsys, ["grid-stats", "--grid-n", "2"])
    assert code == 0
    counts = {}
    for line in out.strip().split("\n"):
        parts = line.split()
        if parts and parts[0].isdigit():
            counts[int(parts[0])] = int(parts[1])
    assert sum(counts.values()) == 4


def test_grid_stats_iteration_bounds(capsys):
    code, out = run(capsys, ["grid-stats", "--grid-n", "64"])
    assert code == 0
    max_line = [l for l in out.split("\n") if l.startswith("max_iterations")][0]
    # the default guess: at most one evaluated step, as the fitter
    # docstring and CI's installed-script check state
    assert int(max_line.split()[1]) <= 1

    code, out = run(capsys, ["grid-stats", "--grid-n", "64", "--guess", "linear"])
    assert code == 0
    max_line = [l for l in out.split("\n") if l.startswith("max_iterations")][0]
    assert int(max_line.split()[1]) <= 6
