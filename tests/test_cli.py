"""Command-line behavior: outputs, exit codes, determinism, JSON."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from denumerant.cli import (
    CliConfig,
    VerifyReport,
    main,
    random_coprime_partset,
    run,
    run_verify,
)
from denumerant.errors import DomainError, SamplingExhaustedError
from denumerant.partset import PartSet
from denumerant.reductions import theorem1_count

from helpers import coprime_part_tuples

F = Fraction


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_default_method(self, capsys):
        code, out, _ = invoke(capsys, "count", "--parts", "2,3", "--n", "11")
        assert code == 0
        assert out == "2\n"

    def test_named_methods_agree(self, capsys):
        outputs = set()
        for method in ("oracle", "theorem1", "section3", "closed-form"):
            code, out, _ = invoke(
                capsys, "count", "--parts", "2,3,5", "--n", "59", "--method", method
            )
            assert code == 0
            outputs.add(out)
        assert outputs == {"68\n"}

    def test_seeded_method_agreement(self, capsys):
        rng = random.Random(42)
        pool = coprime_part_tuples(13, (2, 3, 4))
        for _ in range(25):
            combo = rng.choice(pool)
            parts = PartSet(combo)
            n = rng.randint(0, 3) * parts.product + rng.randrange(parts.product)
            seen = set()
            for method in ("oracle", "theorem1", "section3", "closed-form"):
                code, out, _ = invoke(
                    capsys,
                    "count",
                    "--parts",
                    ",".join(map(str, combo)),
                    "--n",
                    str(n),
                    "--method",
                    method,
                )
                assert code == 0
                seen.add(out)
            assert len(seen) == 1

    def test_closed_form_arity_limit_is_a_domain_error(self, capsys):
        code, out, err = invoke(
            capsys,
            "count",
            "--parts",
            "1,2,3,5,7,11",
            "--n",
            "100",
            "--method",
            "closed-form",
        )
        assert code == 3
        assert out == ""
        assert "error:" in err

    def test_large_value_exact_through_json(self, capsys):
        n = 10 ** 30 + 1
        code, out, _ = invoke(
            capsys,
            "count",
            "--parts",
            "2,3",
            "--n",
            str(n),
            "--method",
            "theorem1",
            "--output",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["subcommand"] == "count"
        assert payload["parts"] == [2, 3]
        assert payload["input"] == str(n)
        assert payload["method"] == "theorem1"
        assert int(payload["value"]) == theorem1_count(PartSet.of(2, 3), n)
        assert int(payload["value"]) > 2 ** 53  # a float would have mangled it


class TestOtherSubcommands:
    def test_theorem2(self, capsys):
        code, out, _ = invoke(capsys, "theorem2", "--parts", "2,3,5", "--x", "1")
        assert code == 0
        assert out == "19\n"

    def test_theorem3(self, capsys):
        code, out, _ = invoke(capsys, "theorem3", "--parts", "3,5,7", "--x", "15")
        assert code == 0
        assert out == "45\n"

    def test_bb_text(self, capsys):
        code, out, _ = invoke(capsys, "bb", "--parts", "2,3,5", "--max-index", "1")
        assert code == 0
        assert out == "B_0 = [1/30]\nB_1 = [-1/6, 1/30]\n"

    def test_bb_json_roundtrip(self, capsys):
        code, out, _ = invoke(
            capsys, "bb", "--parts", "2,3,5", "--max-index", "1", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        coeffs = [[F(c) for c in poly] for poly in payload["value"]]
        assert coeffs == [[F(1, 30)], [F(-1, 6), F(1, 30)]]

    def test_bernoulli_text(self, capsys):
        code, out, _ = invoke(capsys, "bernoulli", "--max-index", "4")
        assert code == 0
        assert out == "B_0 = 1\nB_1 = 1/2\nB_2 = 1/6\nB_3 = 0\nB_4 = -1/30\n"

    def test_bernoulli_json(self, capsys):
        code, out, _ = invoke(
            capsys, "bernoulli", "--max-index", "4", "--output", "json"
        )
        payload = json.loads(out)
        assert [F(v) for v in payload["value"]] == [
            F(1),
            F(1, 2),
            F(1, 6),
            F(0),
            F(-1, 30),
        ]
        assert payload["parts"] == []


class TestExitCodes:
    def test_usage_error_bad_parts(self, capsys):
        code, _, _ = invoke(capsys, "count", "--parts", "2,x", "--n", "5")
        assert code == 2

    def test_usage_error_missing_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "count", "--parts", "2,3", "--n", "5", "--frob", "1")
        assert code == 2

    def test_usage_error_nonpositive_parts(self, capsys):
        code, _, _ = invoke(capsys, "count", "--parts", "0,3", "--n", "5")
        assert code == 2

    def test_domain_error_non_coprime(self, capsys):
        code, _, err = invoke(
            capsys, "count", "--parts", "2,4", "--n", "5", "--method", "theorem1"
        )
        assert code == 3
        assert "coprime" in err

    def test_domain_error_out_of_range_x(self, capsys):
        code, _, _ = invoke(capsys, "theorem2", "--parts", "2,3,5", "--x", "10")
        assert code == 3

    def test_domain_error_duplicate_parts(self, capsys):
        code, _, _ = invoke(capsys, "count", "--parts", "2,2,3", "--n", "5")
        assert code == 3

    def test_domain_error_negative_n(self, capsys):
        code, _, _ = invoke(capsys, "count", "--parts", "2,3", "--n", "-4")
        assert code == 3

    def test_oversized_table_refused_before_allocating(self, capsys):
        code, out, err = invoke(capsys, "count", "--parts", "2,3", "--n", str(10**12))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "cap" in err and "theorem1" in err
        assert "Traceback" not in err


class TestDeterminism:
    def test_identical_argv_identical_stdout(self, capsys):
        argv = ("verify", "--trials", "40", "--seed", "11", "--output", "json")
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second

    def test_elapsed_goes_to_stderr_not_stdout(self, capsys):
        code, out, err = invoke(capsys, "verify", "--trials", "5")
        assert code == 0
        assert "elapsed" not in out
        assert "elapsed" in err


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--trials", "30", "--seed", "3")
        assert code == 0
        assert "failures: 0" in out

    def test_json_shape(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--trials", "25", "--seed", "5", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"trials": 25, "failures": [], "seed": 5}

    def test_report_object(self):
        report = run_verify(
            trials=20, seed=0, k_min=2, k_max=4, max_part=13, max_product=100000
        )
        assert isinstance(report, VerifyReport)
        assert report.trials == 20
        assert report.failures == ()
        assert report.elapsed >= 0

    def test_k_range_validated(self):
        with pytest.raises(DomainError):
            run_verify(trials=1, seed=0, k_min=3, k_max=2, max_part=13, max_product=10)

    def test_negative_trials_rejected_at_parse(self, capsys):
        code, _, _ = invoke(capsys, "verify", "--trials", "-1")
        assert code == 2


class TestRandomCoprimePartset:
    def test_forced_pair(self):
        rng = random.Random(0)
        assert random_coprime_partset(2, 2, rng) == PartSet.of(1, 2)

    def test_postcondition(self):
        rng = random.Random(9)
        for _ in range(50):
            parts = random_coprime_partset(3, 13, rng)
            values = parts.parts
            assert len(values) == 3
            assert all(1 <= v <= 13 for v in values)
            assert all(
                gcd(values[i], values[j]) == 1
                for i in range(3)
                for j in range(i + 1, 3)
            )

    def test_exhaustion(self):
        # [1,6] has no six pairwise-coprime values, so every draw is rejected
        rng = random.Random(1)
        with pytest.raises(SamplingExhaustedError):
            random_coprime_partset(6, 6, rng, max_attempts=50)

    def test_bad_arguments(self):
        rng = random.Random(0)
        with pytest.raises(DomainError):
            random_coprime_partset(0, 5, rng)
        with pytest.raises(DomainError):
            random_coprime_partset(4, 3, rng)


def test_config_defaults():
    config = CliConfig(subcommand="verify")
    assert config.method == "oracle"
    assert config.output == "text"
    assert config.trials == 500
    assert config.seed == 0


def test_main_exits(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.argv", ["denumerant", "count", "--parts", "2,3", "--n", "11"]
    )
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "2\n"
