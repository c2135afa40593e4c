"""CLI tests (direct main() invocation with captured stdout)."""

import pytest

from repro.cli import main


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("facebook", "wikivote", "epinions", "dblp", "pokec"):
        assert name in out
    assert "Stand-in" in out


def test_table1_command(capsys):
    assert main(["table1", "--scale", "0.05", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Paper nodes" in out
    assert "pokec" in out


def test_solve_command_bounded(capsys):
    code = main(
        [
            "solve",
            "--dataset",
            "facebook",
            "--scale",
            "0.1",
            "--solver",
            "MAF",
            "--k",
            "5",
            "--max-samples",
            "1500",
            "--eval-trials",
            "100",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "seeds:" in out
    assert "Monte-Carlo c(S)" in out
    assert "stopped_by=" in out


def test_solve_command_lt_model(capsys):
    code = main(
        [
            "solve",
            "--dataset",
            "facebook",
            "--scale",
            "0.08",
            "--solver",
            "UBG",
            "--k",
            "4",
            "--model",
            "lt",
            "--max-samples",
            "1000",
            "--eval-trials",
            "0",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pool objective" in out


def test_solve_command_skips_eval_when_zero_trials(capsys):
    main(
        [
            "solve",
            "--scale",
            "0.08",
            "--k",
            "3",
            "--solver",
            "GreedyC",
            "--max-samples",
            "800",
            "--eval-trials",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert "Monte-Carlo" not in out


def test_figure_fig8(capsys):
    code = main(
        [
            "figure",
            "fig8",
            "--scale",
            "0.08",
            "--pool-size",
            "150",
            "--eval-trials",
            "40",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fractional" in out and "bounded" in out


def test_figure_fig7(capsys):
    code = main(
        [
            "figure",
            "fig7",
            "--dataset",
            "epinions",
            "--scale",
            "0.06",
            "--pool-size",
            "100",
            "--eval-trials",
            "30",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "MAF" in out and "UBG" in out


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["teleport"])


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def test_bad_dataset_choice_exits():
    with pytest.raises(SystemExit):
        main(["solve", "--dataset", "orkut"])


def test_solve_command_with_report(capsys):
    code = main(
        [
            "solve",
            "--scale",
            "0.08",
            "--k",
            "4",
            "--solver",
            "MAF",
            "--max-samples",
            "800",
            "--eval-trials",
            "60",
            "--report",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Pr[tip]" in out
    assert "total" in out


def test_compare_command_single_trial(capsys):
    code = main(
        [
            "compare",
            "--scale",
            "0.08",
            "--algorithms",
            "MAF,KS",
            "--k",
            "3,6",
            "--pool-size",
            "120",
            "--eval-trials",
            "40",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "MAF" in out and "KS" in out
    assert "runtime (s)" in out
    assert out.count("MAF") >= 2  # one row per k


def test_compare_command_repeated_trials(capsys):
    code = main(
        [
            "compare",
            "--scale",
            "0.08",
            "--algorithms",
            "MAF",
            "--k",
            "4",
            "--pool-size",
            "100",
            "--eval-trials",
            "30",
            "--trials",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "±" in out
    assert "3 trials" in out
