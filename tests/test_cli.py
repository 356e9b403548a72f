"""Command-line interface: subcommands, JSON reports, exit codes."""

import json
from fractions import Fraction

import pytest

from toricpot import (FLOAT, MomentPolytope, NovikovSeries,
                      PotentialFunction, build_example)
from toricpot.cli import main


@pytest.fixture(scope="module")
def twoblow_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("poly") / "twoblow.json"
    rc = main(["polytope", "example", "two_point_blowup",
               "--params", "2/5,3/10", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def cp3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("poly") / "cp3.json"
    assert main(["polytope", "example", "cpn", "--params", "3",
                 "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def cp1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("poly") / "cp1.json"
    assert main(["polytope", "example", "cp1", "--out", str(path)]) == 0
    return str(path)


def run_json(capsys, argv):
    rc = main(argv + ["--json"])
    out = capsys.readouterr().out
    return rc, out


class TestPolytopeCommand:
    def test_example_then_validate(self, twoblow_file, capsys):
        assert main(["polytope", "validate", twoblow_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_example_without_out_prints_the_polytope(self, capsys):
        assert main(["polytope", "example", "k_point_blowup",
                     "--params", "2/5,1/50"]) == 0
        want = build_example("k_point_blowup", Fraction(2, 5),
                             Fraction(1, 50)).to_dict()
        assert json.loads(capsys.readouterr().out) == want

    def test_validate_missing_file_exits_1(self, capsys):
        assert main(["polytope", "validate", "/no/such/file.json"]) == 1

    def test_invalid_polytope_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 1, "facets": [{"v": [1], "lambda": "1"},
                               {"v": [-1], "lambda": "0"}]}))
        assert main(["polytope", "validate", str(bad)]) == 1


class TestReports:
    def test_solve_json_canonical(self, twoblow_file, capsys):
        rc, out = run_json(capsys, ["solve", "--polytope", twoblow_file,
                                    "--u", "13/40,3/10"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["certified"]
        # byte-identical canonical round-trip
        again = json.dumps(doc, sort_keys=True, indent=2,
                           separators=(",", ": ")) + "\n"
        assert again == out

    def test_solve_cp3_centre_certified(self, cp3_file, capsys):
        # a square binomial system: solved in closed form and certified
        rc, out = run_json(capsys, ["solve", "--polytope", cp3_file,
                                    "--u", "1/4,1/4,1/4",
                                    "--require-certified"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["path"] == "m"
        assert doc["certified"] is True
        assert len(doc["solutions"]) == 4

    def test_classify_json(self, twoblow_file, capsys):
        rc, out = run_json(capsys, ["classify", "--polytope", twoblow_file,
                                    "--u", "1/4,3/10"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "NoSolutionFound"
        assert doc["threshold_bound"] == "1/4"
        assert doc["bounds"]["threshold"]["physical"] == "2*pi*1/4"

    def test_scan_json(self, twoblow_file, capsys):
        rc, out = run_json(capsys, ["scan", "--polytope", twoblow_file,
                                    "--step", "1/40", "--row", "u2=3/10"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["balanced"] == [["13/40", "3/10"], ["7/20", "3/10"]]

    def test_potential_text(self, cp1_file, capsys):
        assert main(["potential", "--polytope", cp1_file, "--u", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "T^1/2" in out

    def test_leading_lists_levels(self, twoblow_file, capsys):
        assert main(["leading", "--polytope", twoblow_file,
                     "--u", "13/40,3/10"]) == 0
        out = capsys.readouterr().out
        assert "S_1 = 3/10" in out
        assert "y[1,1]" in out

    def test_lift_bulk_json(self, twoblow_file, capsys):
        rc, out = run_json(capsys, ["lift", "bulk", "--polytope",
                                    twoblow_file, "--u", "13/40,3/10",
                                    "--solution", "1,-1", "--order", "2"])
        assert rc == 0
        doc = json.loads(out)
        cert = doc["certificate"]
        assert cert["congruences_checked"]
        rv = cert["residual_valuation"]
        assert rv == "inf" or float(eval(rv)) >= 2  # noqa: S307 - "p/q"

    def test_lift_point(self, cp1_file, capsys):
        rc = main(["lift", "point", "--polytope", cp1_file, "--u", "1/2",
                   "--solution", "-1", "--order", "2"])
        assert rc == 0
        assert "residual valuation inf" in capsys.readouterr().out

    def test_bulk_spec_forms(self, twoblow_file, capsys):
        rc = main(["potential", "--polytope", twoblow_file,
                   "--u", "1/3,3/10", "--mode", "float", "--trunc", "1",
                   "--bulk", '{"1": "1*T^1/100"}'])
        assert rc == 0
        rc = main(["potential", "--polytope", twoblow_file,
                   "--u", "1/3,3/10", "--mode", "float", "--trunc", "1",
                   "--bulk", '{"1": {"exp_b0": -0.5, "b_plus": "T^1/2"}}'])
        assert rc == 0

    def test_solve_cutoff_json(self, twoblow_file, capsys):
        # the level-1 equation alone: y1 = +-1 with y2 unconstrained
        rc, out = run_json(capsys, ["solve", "--polytope", twoblow_file,
                                    "--u", "13/40,3/10", "--cutoff", "1"])
        assert rc == 0
        doc = json.loads(out)
        assert (doc["path"], doc["certified"]) == ("a", True)
        values = [s["values"] for s in doc["solutions"]]
        assert [list(v) for v in values] == [["Y1_1"], ["Y1_1"]]
        assert [round(v["Y1_1"][0], 9) for v in values] == [-1, 1]

    def test_classify_lift_order_json(self, twoblow_file, capsys):
        rc, out = run_json(capsys, ["classify", "--polytope", twoblow_file,
                                    "--u", "13/40,3/10", "--lift-order", "2"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "BulkBalanced"
        lift = doc["lift"]
        assert (lift["order"], lift["residual_valuation"]) == ("2", "inf")
        assert sorted(lift) == ["bulk", "order", "residual_valuation", "y"]


class TestInputForms:
    """``--coeffs``, ``--bulk`` and ``--polytope`` in each accepted form."""

    # at u = (3/10, 3/10) a coefficient c on facet 1 gives (y1, y2) =
    # (1 - c, -1)
    @pytest.mark.parametrize("spec", ['{"1": [1, 1]}', '{"1": "1 + 1j"}'])
    def test_complex_coefficients(self, twoblow_file, capsys, spec):
        rc, out = run_json(capsys, ["solve", "--polytope", twoblow_file,
                                    "--u", "3/10,3/10", "--coeffs", spec])
        assert rc == 0
        solution, = json.loads(out)["solutions"]
        y = {k: complex(*v) for k, v in solution["values"].items()}
        assert abs(y["Y1_1"] + 1j) < 1e-9 and abs(y["Y1_2"] + 1) < 1e-9

    def test_json_arguments_from_file(self, twoblow_file, tmp_path, capsys):
        coeffs, bulk = '{"1": [1, 1]}', '{"1": "1*T^1/100"}'
        (tmp_path / "coeffs.json").write_text(coeffs)
        (tmp_path / "bulk.json").write_text(bulk)
        outputs = []
        for c, b in [(coeffs, bulk), ("@" + str(tmp_path / "coeffs.json"),
                                      "@" + str(tmp_path / "bulk.json"))]:
            assert main(["solve", "--polytope", twoblow_file,
                         "--u", "3/10,3/10", "--coeffs", c, "--json"]) == 0
            assert main(["potential", "--polytope", twoblow_file,
                         "--u", "1/3,3/10", "--mode", "float", "--trunc",
                         "1", "--bulk", b, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "1/100" in outputs[0]

    def test_lift_bulk_records_feed_potential_bulk(self, twoblow_file,
                                                   capsys):
        # the weights that ``lift bulk --json`` prints, read back by
        # ``potential --bulk``, make the lifted point critical mod T^2
        fiber = ["--polytope", twoblow_file, "--u", "13/40,3/10"]
        rc, out = run_json(capsys, ["lift", "bulk", *fiber,
                                    "--solution", "1,-1", "--order", "2"])
        assert rc == 0
        lift = json.loads(out)
        rc, out = run_json(capsys, ["potential", *fiber, "--mode", "float",
                                    "--trunc", "2",
                                    "--bulk", json.dumps(lift["bulk"])])
        assert rc == 0
        F = PotentialFunction(2, [
            (NovikovSeries.from_records(t["coefficient"], mode=FLOAT,
                                        trunc=Fraction(t["trunc"])),
             t["exponents"]) for t in json.loads(out)["terms"]])
        y = [NovikovSeries.const(complex(*c), mode=FLOAT) for c in lift["y"]]
        _, valuation = F.gradient_residual(y)
        assert valuation >= 2

    def test_example_polytope_spec(self, capsys):
        rc, out = run_json(capsys, ["solve", "--polytope", "example:cpn:2",
                                    "--u", "1/3,1/3", "--require-certified"])
        assert rc == 0
        points = [[complex(*v) for v in s["values"].values()]
                  for s in json.loads(out)["solutions"]]
        # the centre of CP^2: y1 = y2 = each cube root of unity
        assert len(points) == 3
        for y1, y2 in points:
            assert abs(y1 - y2) < 1e-9 and abs(y1 ** 3 - 1) < 1e-9


class TestExitCodes:
    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_bad_u_exits_1(self, cp1_file, capsys):
        assert main(["potential", "--polytope", cp1_file,
                     "--u", "not-a-number"]) == 1

    def test_repro_unknown_name_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["repro", "not-a-scenario"])
        assert err.value.code == 1

    def test_uncertified_solve_exits_2(self, tmp_path, capsys):
        # CP^3 with its origin vertex cut off, u1 + u2 + u3 >= 1/2: at
        # (1/4, 1/4, 1/4) the system goes to stage (c), which certifies
        # nothing
        cp3 = build_example("cpn", 3)
        cut = MomentPolytope(3, [(f.v, f.lam) for f in cp3.facets]
                             + [((1, 1, 1), Fraction(1, 2))])
        path = tmp_path / "cut_cp3.json"
        path.write_text(json.dumps(cut.to_dict()))
        argv = ["solve", "--polytope", str(path), "--u", "1/4,1/4,1/4"]
        rc, out = run_json(capsys, argv)
        doc = json.loads(out)
        assert (rc, doc["path"], doc["certified"]) == (0, "c", False)
        assert len(doc["solutions"]) == 6
        assert main(argv + ["--require-certified"]) == 2

    def test_non_positive_generator_exits_1(self, twoblow_file, capsys):
        assert main(["lift", "bulk", "--polytope", twoblow_file,
                     "--u", "13/40,3/10", "--solution", "1,-1",
                     "--order", "2", "--generators", "0,-1/2"]) == 1
        assert "not positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--mode", "float"], ["--trunc", "7"]])
    def test_series_flags_belong_to_potential(self, twoblow_file, flag):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--polytope", twoblow_file, "--step", "1/10"]
                 + flag)
        assert err.value.code == 1


class TestRepro:
    @pytest.mark.parametrize("name", [
        "cp1-residue",
        "one-point-blowup-A2",
        "generalized-lte",
        "two-point-blowup-scan",
        "three-point-blowup-scan",
    ])
    def test_scenarios_pass(self, name, capsys):
        assert main(["repro", name]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_case_scenario_with_parameters(self, capsys):
        assert main(["repro", "two-point-blowup-cases",
                     "--kappa", "1/100"]) == 0
        out = capsys.readouterr().out
        assert "Fraction(69, 200)" in out

    def test_repro_json(self, capsys):
        rc, out = run_json(capsys, ["repro", "cp1-residue"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"]
        assert all(c["pass"] for c in doc["checks"])
