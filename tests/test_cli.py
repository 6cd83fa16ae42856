"""CLI behaviour: generate / mine / fit / recognize / experiment plumbing."""

import json

import pytest

from repro.cli import _EXPERIMENTS, main
from repro.eval import experiments


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.json"
    code = main(
        [
            "generate",
            "cace",
            str(path),
            "--homes",
            "2",
            "--sessions",
            "2",
            "--duration",
            "1200",
            "--seed",
            "11",
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_valid_json(self, corpus_path):
        data = json.loads(corpus_path.read_text())
        assert data["schema"] == "repro.dataset/1"
        assert len(data["sequences"]) == 4

    def test_casas_corpus(self, tmp_path):
        path = tmp_path / "casas.json"
        code = main(
            ["generate", "casas", str(path), "--homes", "1", "--sessions", "1", "--seed", "3"]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["has_gestural"] is False

    def test_three_resident_corpus(self, tmp_path):
        path = tmp_path / "trio.json"
        code = main(
            [
                "generate", "cace", str(path),
                "--homes", "1", "--sessions", "1", "--duration", "900",
                "--residents", "3", "--seed", "3",
            ]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert len(data["sequences"][0]["resident_ids"]) == 3


class TestMine:
    def test_prints_rules(self, corpus_path, capsys):
        code = main(["mine", str(corpus_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "rules total" in out

    def test_writes_rules_json(self, corpus_path, tmp_path):
        out_path = tmp_path / "rules.json"
        code = main(["mine", str(corpus_path), "--output", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["schema"] == "repro.rules/1"


class TestFitAndServe:
    @pytest.fixture(scope="class")
    def artifact_path(self, corpus_path, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.json"
        code = main(
            ["fit", str(corpus_path), str(path), "--strategy", "c2", "--seed", "5"]
        )
        assert code == 0
        return path

    def test_fit_writes_versioned_artifact(self, artifact_path):
        data = json.loads(artifact_path.read_text())
        assert data["schema"] == "repro.model/1"
        assert data["engine"]["strategy"] == "c2"

    def test_recognize_serves_saved_artifact(self, corpus_path, artifact_path, capsys):
        code = main(
            ["recognize", str(corpus_path), "--model", str(artifact_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Overall" in out
        assert "offline" in out

    def test_recognize_streams_saved_artifact(self, corpus_path, artifact_path, capsys):
        code = main(
            [
                "recognize", str(corpus_path),
                "--model", str(artifact_path),
                "--stream", "--lag", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Overall" in out
        assert "streamed (lag=3)" in out

    def test_stream_without_model_rejected(self, corpus_path, capsys):
        code = main(["recognize", str(corpus_path), "--stream"])
        assert code == 2
        assert "--stream requires --model" in capsys.readouterr().err


class TestRecognize:
    def test_reports_metrics(self, corpus_path, capsys):
        code = main(
            ["recognize", str(corpus_path), "--strategy", "c2", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Overall" in out
        assert "decode" in out


class TestExperimentDispatch:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_every_experiment_names_a_driver(self):
        for name, (func_name, _) in _EXPERIMENTS.items():
            assert callable(getattr(experiments, func_name, None)), name

    def test_micro_experiment_runs(self, capsys):
        code = main(["experiment", "micro", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "postural" in out and "gestural" in out
