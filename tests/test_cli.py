import errno
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mixtag
from mixtag.cli import build_parser, main
from mixtag.corpus import TRAIN3COL, TEST2COL, parse_corpus, write_corpus
from mixtag.crf import load_model
from mixtag.features import EMPTY_LEXICON, FeatureCatalogue, extract_sentence_attributes, load_lexicon
from mixtag.tagging import tag_corpus, tag_sentence
from mixtag.trainer import TrainConfig

from conftest import model_file, model_parts, position_attributes
from datagen import separable_corpus, strip_labels

TRAIN_TEXT = (
    "ami\tbn\tPRP\nkhub\tbn\tJJ\nbhalo\tbn\tJJ\n\n"
    "ok\ten\tUH\n\n"
    "ami\tbn\tPRP\nbhalo\tbn\tJJ\n"
)
TEST_TEXT = "ami\tbn\nbhalo\tbn\n\nok\ten\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "train.txt").write_text(TRAIN_TEXT, encoding="utf-8")
    (tmp_path / "test.txt").write_text(TEST_TEXT, encoding="utf-8")
    return tmp_path


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrain:
    def test_basic_training(self, workdir, capsys):
        model = workdir / "model.txt"
        code, out, err = run(
            ["train", "--train", str(workdir / "train.txt"), "--model", str(model),
             "--max-iter", "20"],
            capsys,
        )
        assert code == 0, err
        assert model.exists()
        assert "training sentences: 3" in out
        assert "iterations:" in out and "final objective:" in out

    def test_stdout_is_eight_lines_in_a_fixed_order(self, workdir, capsys):
        # scripts read these lines, so their order and formats stay fixed
        model = workdir / "model.txt"
        code, out, err = run(
            ["train", "--train", str(workdir / "train.txt"), "--model", str(model),
             "--max-iter", "20"],
            capsys,
        )
        assert code == 0, err
        saved = load_model(model.read_bytes())
        _, report = mixtag.trainer.train(
            parse_corpus(TRAIN_TEXT, TRAIN3COL), config=TrainConfig(max_iterations=20)
        )
        lines = out.split("\n")
        assert lines.pop() == "" and len(lines) == 8
        assert lines[:6] == [
            "training sentences: 3",
            "training tokens: 6",
            f"labels: {len(saved.labels)}",
            f"parameters: {saved.index.size}",
            f"iterations: {report.iterations}",
            f"final objective: {report.final_objective:.6f}",
        ]
        assert re.fullmatch(r"wall time: \d+\.\d\ds", lines[6])
        assert lines[7] == f"model written to {model}"

    def test_multiple_train_files_merged(self, workdir, capsys):
        for name in ("a.txt", "b.txt"):
            (workdir / name).write_text(TRAIN_TEXT, encoding="utf-8")
        code, out, _ = run(
            ["train", "--train", str(workdir / "a.txt"), "--train", str(workdir / "b.txt"),
             "--model", str(workdir / "m.txt"), "--max-iter", "5"],
            capsys,
        )
        assert code == 0
        assert "training sentences: 6" in out

    def test_zero_iterations_writes_zero_model(self, workdir, capsys):
        model = workdir / "model.txt"
        code, _, _ = run(
            ["train", "--train", str(workdir / "train.txt"), "--model", str(model),
             "--max-iter", "0"],
            capsys,
        )
        assert code == 0
        assert np.all(load_model(model.read_bytes()).weights == 0)

    def test_training_error_is_numeric_failure(self, workdir, capsys, monkeypatch):
        from mixtag import trainer

        def diverge(*args, **kwargs):
            raise trainer.TrainingError("objective became non-finite")

        monkeypatch.setattr(trainer, "train", diverge)
        model = workdir / "model.txt"
        code, _, err = run(
            ["train", "--train", str(workdir / "train.txt"), "--model", str(model)], capsys
        )
        assert code == 3
        assert "objective became non-finite" in err
        assert not model.exists()

    def test_missing_train_flag_is_usage_error(self, workdir, capsys):
        code, _, err = run(["train", "--model", str(workdir / "m.txt")], capsys)
        assert code == 1
        assert err.strip()

    def test_bad_corpus_is_data_error(self, workdir, capsys):
        bad = workdir / "bad.txt"
        bad.write_text("no tabs here\n", encoding="utf-8")
        code, _, err = run(
            ["train", "--train", str(bad), "--model", str(workdir / "m.txt")], capsys
        )
        assert code == 2
        assert "line 1" in err

    def test_unknown_feature_family_is_usage_error(self, workdir, capsys):
        code, _, err = run(
            ["train", "--train", str(workdir / "train.txt"),
             "--model", str(workdir / "m.txt"), "--disable-feature", "nope"],
            capsys,
        )
        assert code == 1
        assert "nope" in err

    @pytest.mark.parametrize("option,value,message", [
        ("--cutoff", "0", "cutoff must be >= 1"),
        ("--max-iter", "-1", "max_iterations must be >= 0"),
        ("--sigma2", "-1", "l2_sigma2 must be positive"),
        ("--sigma2", "nan", "l2_sigma2 must be positive"),
        ("--tol", "nan", "tolerance must be positive"),
        ("--disable-feature", "nope", "unknown feature family 'nope'"),
    ])
    def test_bad_option_value_is_usage_error(self, workdir, capsys, option, value, message):
        # the lexicon does not exist: option values are checked before any file is read
        model = workdir / "m.txt"
        code, _, err = run(
            ["train", "--train", str(workdir / "train.txt"), "--lexicon", str(workdir / "none.tsv"),
             "--model", str(model), option, value],
            capsys,
        )
        assert code == 1
        assert message in err
        assert not model.exists()

    def test_defaults_are_the_train_config_defaults(self):
        args = build_parser().parse_args(["train", "--train", "t.txt", "--model", "m.txt"])
        config = TrainConfig(cutoff=args.cutoff, l2_sigma2=args.sigma2,
                             max_iterations=args.max_iter, tolerance=args.tol)
        assert config == TrainConfig()

    def test_unwritable_model_path_is_data_error(self, workdir, capsys):
        model = workdir / "no-such-dir" / "m.txt"
        code, out, err = run(
            ["train", "--train", str(workdir / "train.txt"), "--model", str(model),
             "--max-iter", "5"],
            capsys,
        )
        assert code == 2
        assert err == f"mixtag: {model}: {os.strerror(errno.ENOENT)}\n"
        assert "model written" not in out

    @pytest.mark.parametrize("model_name,error", [
        ("no-such-dir/m.txt", errno.ENOENT),
        (".", errno.EISDIR),
        ("train.txt/m.txt", errno.ENOTDIR),
    ])
    def test_model_path_checked_before_any_input(self, workdir, capsys, monkeypatch, model_name, error):
        # the training file does not exist either: the model path is named first
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking --model")

        monkeypatch.setattr(mixtag.trainer, "train", no_training)
        model = workdir / model_name
        before = sorted(workdir.iterdir())
        code, out, err = run(
            ["train", "--train", str(workdir / "absent.txt"), "--model", str(model)], capsys
        )
        assert code == 2
        assert err == f"mixtag: {model}: {os.strerror(error)}\n"
        assert out == ""
        assert sorted(workdir.iterdir()) == before

    def test_unwritable_model_directory_is_data_error(self, workdir, capsys, monkeypatch):
        # as root every directory is writable, so the permission answer is
        # stubbed where the check asks it
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        model = workdir / "m.txt"
        code, _, err = run(
            ["train", "--train", str(workdir / "train.txt"), "--model", str(model)], capsys
        )
        assert code == 2
        assert err == f"mixtag: {model}: {os.strerror(errno.EACCES)}\n"
        assert not model.exists()

    def test_existing_model_untouched_on_numeric_failure(self, workdir, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise mixtag.trainer.TrainingError("objective became non-finite")

        monkeypatch.setattr(mixtag.trainer, "train", diverge)
        model = workdir / "model.txt"
        model.write_bytes(b"an earlier model\n")
        code, _, _ = run(
            ["train", "--train", str(workdir / "train.txt"), "--model", str(model)], capsys
        )
        assert code == 3
        assert model.read_bytes() == b"an earlier model\n"

    def test_disable_feature_accepted(self, workdir, capsys):
        code, _, _ = run(
            ["train", "--train", str(workdir / "train.txt"),
             "--model", str(workdir / "m.txt"), "--max-iter", "5",
             "--disable-feature", "ortho", "--disable-feature", "affixes"],
            capsys,
        )
        assert code == 0


class TestTag:
    def _train(self, workdir, capsys):
        model = workdir / "model.txt"
        code, _, _ = run(
            ["train", "--train", str(workdir / "train.txt"), "--model", str(model),
             "--max-iter", "30"],
            capsys,
        )
        assert code == 0
        return model

    def test_tag_output_structure(self, workdir, capsys):
        model = self._train(workdir, capsys)
        out_path = workdir / "tagged.txt"
        code, _, _ = run(
            ["tag", "--model", str(model), "--input", str(workdir / "test.txt"),
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        tagged = parse_corpus(out_path.read_text(encoding="utf-8"), TRAIN3COL)
        source = parse_corpus(TEST_TEXT, TEST2COL)
        assert [len(s) for s in tagged] == [len(s) for s in source]
        for ts, ss in zip(tagged, source):
            for tt, st in zip(ts, ss):
                assert (tt.surface, tt.lang) == (st.surface, st.lang)
                assert tt.pos

    def test_self_tagging_evaluates_perfect(self, workdir, capsys):
        model = self._train(workdir, capsys)
        out_path = workdir / "tagged.txt"
        run(["tag", "--model", str(model), "--input", str(workdir / "test.txt"),
             "--output", str(out_path)], capsys)
        code, out, _ = run(
            ["eval", "--gold", str(out_path), "--pred", str(out_path)], capsys
        )
        assert code == 0
        assert out.strip().split("\n")[-1] == "100.00"

    def test_empty_input(self, workdir, capsys):
        model = self._train(workdir, capsys)
        empty = workdir / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out_path = workdir / "out.txt"
        code, _, _ = run(
            ["tag", "--model", str(model), "--input", str(empty),
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == ""

    def test_three_column_input_rejected(self, workdir, capsys):
        model = self._train(workdir, capsys)
        code, _, err = run(
            ["tag", "--model", str(model), "--input", str(workdir / "train.txt"),
             "--output", str(workdir / "out.txt")],
            capsys,
        )
        assert code == 2
        assert "expected 2" in err

    def test_model_version_mismatch(self, workdir, capsys):
        model = self._train(workdir, capsys)
        data = model.read_bytes().replace(b"MIXTAG-MODEL 4 ", b"MIXTAG-MODEL 5 ", 1)
        model.write_bytes(data)
        code, _, err = run(
            ["tag", "--model", str(model), "--input", str(workdir / "test.txt"),
             "--output", str(workdir / "out.txt")],
            capsys,
        )
        assert code == 2
        assert err == f"mixtag: {model}: unsupported model version '5'\n"

    def test_unknown_label_in_model_is_data_error(self, workdir, capsys):
        model = self._train(workdir, capsys)
        text, blocks = model_parts(model.read_bytes())
        lines = text.split(b"\n")
        assert lines[0] == b"labels 3"
        lines[2] = lines[1]  # the label block repeats its first label
        model.write_bytes(model_file(b"\n".join(lines), blocks))
        code, _, err = run(
            ["tag", "--model", str(model), "--input", str(workdir / "test.txt"),
             "--output", str(workdir / "out.txt")],
            capsys,
        )
        assert code == 2
        assert "bad label block" in err

    def test_unwritable_output_is_data_error(self, workdir, capsys):
        model = self._train(workdir, capsys)
        output = workdir / "no-such-dir" / "out.txt"
        code, out, err = run(
            ["tag", "--model", str(model), "--input", str(workdir / "test.txt"),
             "--output", str(output)],
            capsys,
        )
        assert code == 2
        assert err == f"mixtag: {output}: {os.strerror(errno.ENOENT)}\n"
        assert out == ""

    def test_output_path_checked_before_the_model(self, workdir, capsys):
        # the model does not exist either: the output path is named first
        output = workdir / "no-such-dir" / "out.txt"
        before = sorted(workdir.iterdir())
        code, out, err = run(
            ["tag", "--model", str(workdir / "absent.model"), "--input", str(workdir / "test.txt"),
             "--output", str(output)],
            capsys,
        )
        assert code == 2
        assert err == f"mixtag: {output}: {os.strerror(errno.ENOENT)}\n"
        assert out == ""
        assert sorted(workdir.iterdir()) == before


class TestEval:
    def test_identical_files(self, workdir, capsys):
        code, out, _ = run(
            ["eval", "--gold", str(workdir / "train.txt"),
             "--pred", str(workdir / "train.txt")],
            capsys,
        )
        assert code == 0
        assert out.strip().split("\n")[-1] == "100.00"

    def test_manual_case(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        pred = tmp_path / "pred.txt"
        gold.write_text("w0\ten\tN\nw1\ten\tV\nw2\ten\tN\n", encoding="utf-8")
        pred.write_text("w0\ten\tN\nw1\ten\tN\nw2\ten\tN\n", encoding="utf-8")
        code, out, _ = run(
            ["eval", "--gold", str(gold), "--pred", str(pred), "--report", "line"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        n_line = next(l for l in lines if l.startswith("N\t"))
        _, p, r, f1, g, pr, c = n_line.split("\t")
        assert float(p) == pytest.approx(2 / 3)
        assert float(r) == 1.0
        assert float(f1) == pytest.approx(0.8)
        assert lines[-1] == "66.67"

    def test_structural_mismatch(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        pred = tmp_path / "pred.txt"
        gold.write_text("a\ten\tN\n\nb\ten\tV\n", encoding="utf-8")
        pred.write_text("a\ten\tN\n", encoding="utf-8")
        code, _, err = run(
            ["eval", "--gold", str(gold), "--pred", str(pred)], capsys
        )
        assert code == 2
        assert "sentence count" in err


class TestFeatures:
    def test_collapsed_vowel_line(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text("Khuuuuuub\tbn\n", encoding="utf-8")
        code, out, _ = run(["features", "--input", str(path)], capsys)
        assert code == 0
        assert "CVR=Khub" in out.split("\n")

    def test_lexicon_normalization_line(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text("krte\tbn\n", encoding="utf-8")
        lex = tmp_path / "lex.tsv"
        lex.write_text("krte\tkorte\n", encoding="utf-8")
        code, out, _ = run(
            ["features", "--input", str(path), "--lexicon", str(lex)], capsys
        )
        assert code == 0
        assert "NORM=korte" in out.split("\n")

    def test_position_selection(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text("a\tbn\nb\tbn\nc\tbn\n", encoding="utf-8")
        code, out, _ = run(
            ["features", "--input", str(path), "--position", "0:1"], capsys
        )
        assert code == 0
        assert "token 1: b" in out
        assert "token 0" not in out

    def test_every_position_equals_extract_attributes(self, tmp_path, capsys):
        # a repeated surface, one under two language tags, a backslash
        # surface and a backslash lexicon entry
        text = "a\\b\tbn\nok\ten\na\\b\tbn\n\nok\ten\nok\ten\nok\tbn\n"
        path = tmp_path / "in.txt"
        path.write_text(text, encoding="utf-8")
        lex = tmp_path / "lex.tsv"
        lex.write_text("a\\b\tc\\d\n", encoding="utf-8")
        code, out, _ = run(["features", "--input", str(path), "--lexicon", str(lex)], capsys)
        assert code == 0
        lexicon = load_lexicon("a\\b\tc\\d\n")
        expected = []
        for s, sentence in enumerate(parse_corpus(text, TEST2COL)):
            for t in range(len(sentence)):
                expected.append(f"# sentence {s} token {t}: {sentence[t].surface}")
                expected.extend(position_attributes(sentence, t, lexicon))
        assert out == "\n".join(expected) + "\n"
        assert "NORM=c\\\\d" in expected and "W-1=a\\\\b" in expected

    def test_position_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text("a\tbn\nb\tbn\nc\tbn\n", encoding="utf-8")
        code, _, err = run(
            ["features", "--input", str(path), "--position", "0:99"], capsys
        )
        assert code == 2
        assert "out of range" in err


class TestFeaturesSchema:
    """``mixtag features`` reads the schema off the first token line and
    names the file in errors."""

    @pytest.mark.parametrize("text, line, message", [
        ("\n\na\ten\tN\nb\ten\n", 4, "expected 3 tab-separated columns, found 2"),
        ("a\ten\tN\tX\n", 1, "expected 2 tab-separated columns, found 4"),
    ])
    def test_bad_columns_exit_2_naming_the_file(self, tmp_path, capsys, text, line, message):
        path = tmp_path / "in.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["features", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"mixtag: {path}: line {line}: {message}\n"

    def test_three_columns(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text("\ufeffa\ten\tN\r\nb\ten\tV\n", encoding="utf-8")
        code, out, err = run(["features", "--input", str(path), "--position", "0:1"], capsys)
        assert code == 0, err
        assert out.startswith("# sentence 0 token 1: b\n")

    def test_missing_file_named_once(self, tmp_path, capsys):
        path = tmp_path / "absent.txt"
        code, _, err = run(["features", "--input", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"mixtag: {path}: ")
        assert err.count(str(path)) == 1


class TestDeterminism:
    def test_train_save_tag_byte_identical(self, tmp_path, capsys):
        corpus = separable_corpus(20, seed=7)
        train_path = tmp_path / "train.txt"
        train_path.write_text(write_corpus(corpus, TRAIN3COL), encoding="utf-8")
        test_path = tmp_path / "test.txt"
        test_path.write_text(
            write_corpus(strip_labels(separable_corpus(10, seed=8)), TEST2COL),
            encoding="utf-8",
        )
        outputs = []
        for run_id in range(2):
            model = tmp_path / f"model{run_id}.txt"
            tagged = tmp_path / f"tagged{run_id}.txt"
            assert run(
                ["train", "--train", str(train_path), "--model", str(model),
                 "--max-iter", "30"],
                capsys,
            )[0] == 0
            assert run(
                ["tag", "--model", str(model), "--input", str(test_path),
                 "--output", str(tagged)],
                capsys,
            )[0] == 0
            outputs.append((model.read_bytes(), tagged.read_bytes()))
        assert outputs[0] == outputs[1]


class TestImports:
    def test_package_and_cli_load_no_scipy(self):
        # numpy is the only dependency
        src = str(Path(mixtag.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = (
            "import sys, mixtag, mixtag.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_package_exposes_trainer_names(self):
        from mixtag import trainer

        for name in ("IndexedCorpus", "TrainConfig", "TrainingError", "TrainReport",
                     "index_corpus", "objective_and_gradient", "train"):
            assert getattr(mixtag, name) is getattr(trainer, name)
        with pytest.raises(AttributeError):
            mixtag.no_such_name


# "kr" is tagged V only through the lexicon, which maps it and the training
# verbs to NORM=kor; without the lexicon its features are those of the JJ words
LEXICON_TEXT = "kr\tkor\nkrbo\tkor\nkrlm\tkor\nkrchi\tkor\n"
LEXICON_TRAIN_TEXT = (
    "krbo\tbn\tV\n\nkrlm\tbn\tV\n\nkrchi\tbn\tV\n\n"
    "khub\tbn\tJJ\n\nbhlo\tbn\tJJ\n\nthik\tbn\tJJ\n\nbesi\tbn\tJJ\n\n"
    "ami\tbn\tPRP\nkhub\tbn\tJJ\n\nami\tbn\tPRP\nkrbo\tbn\tV\n"
)
LEXICON_TEST_TEXT = "kr\tbn\n\nami\tbn\nkr\tbn\n"


class TestModelFeatures:
    """``mixtag tag`` and ``features --model`` use the model's own lexicon and catalogue."""

    @pytest.fixture
    def trained(self, tmp_path, capsys):
        (tmp_path / "train.txt").write_text(LEXICON_TRAIN_TEXT, encoding="utf-8")
        (tmp_path / "test.txt").write_text(LEXICON_TEST_TEXT, encoding="utf-8")
        (tmp_path / "lex.tsv").write_text(LEXICON_TEXT, encoding="utf-8")
        model = tmp_path / "model.txt"
        code, _, err = run(
            ["train", "--train", str(tmp_path / "train.txt"), "--lexicon", str(tmp_path / "lex.tsv"),
             "--disable-feature", "affixes", "--model", str(model), "--max-iter", "30"],
            capsys,
        )
        assert code == 0, err
        return tmp_path, model

    def test_tag_equals_in_process_tagging_with_training_features(self, trained, capsys):
        tmp_path, model_path = trained
        out = tmp_path / "tagged.txt"
        code, _, err = run(["tag", "--model", str(model_path), "--input", str(tmp_path / "test.txt"),
                            "--output", str(out)], capsys)
        assert code == 0, err
        model = load_model(model_path.read_bytes())
        source = parse_corpus(LEXICON_TEST_TEXT, TEST2COL)
        lexicon = load_lexicon(LEXICON_TEXT)
        expected = tag_corpus(model, source, lexicon, FeatureCatalogue().without("affixes"))
        assert out.read_text(encoding="utf-8") == write_corpus(expected, TRAIN3COL)
        # the data tells the lexicon apart: without it, "kr" gets another tag
        assert [t.pos for s in expected for t in s] == ["V", "PRP", "V"]
        without = tag_corpus(replace(model, lexicon=EMPTY_LEXICON), source)
        assert without != expected

    def test_mismatched_explicit_features_raise(self, trained):
        _, model_path = trained
        model = load_model(model_path.read_bytes())
        source = parse_corpus(LEXICON_TEST_TEXT, TEST2COL)
        with pytest.raises(ValueError, match="lexicon .* does not match"):
            tag_corpus(model, source, load_lexicon("kr\tkor\n"))
        with pytest.raises(ValueError, match="lexicon .* does not match"):
            tag_sentence(model, source.sentences[0], EMPTY_LEXICON)
        with pytest.raises(ValueError, match="catalogue all does not match"):
            tag_corpus(model, source, catalogue=FeatureCatalogue())

    @staticmethod
    def _assert_retrain(tmp_path, model_path, capsys, version):
        out = tmp_path / "tagged.txt"
        for command, output in [("tag", ["--output", str(out)]), ("features", [])]:
            code, stdout, err = run(
                [command, "--input", str(tmp_path / "test.txt"), *output, "--model", str(model_path)],
                capsys,
            )
            assert code == 2
            assert err == (f"mixtag: {model_path}: model format version {version} is no longer read; "
                           "retrain the model with mixtag train\n")
            assert stdout == ""
            assert not out.exists()

    def test_v1_model_with_lexicon_exits_2(self, trained, capsys):
        tmp_path, model_path = trained
        # the spelling the package wrote before format 2, with a lexicon fingerprint
        model_path.write_bytes(b"MIXTAG-MODEL 1\nlabels 1\nX\ncatalogue all\n"
                               b"lexicon 116e12c92c0cdd8b\ntransitions\nX\tX\t0.5\nstates 0\n")
        self._assert_retrain(tmp_path, model_path, capsys, 1)

    def test_v2_model_exits_2(self, trained, capsys):
        tmp_path, model_path = trained
        # the spelling the package wrote before format 3: every state row in
        # one base64 weights line
        model_path.write_bytes(b"MIXTAG-MODEL 2\nlabels 1\nX\ncatalogue all\nlexicon 0\n"
                               b"attributes 1\nW0=a\nweights\nAAAAAAAA4D8AAAAAAADwPw==\n")
        self._assert_retrain(tmp_path, model_path, capsys, 2)

    def test_v3_model_exits_2(self, trained, capsys):
        tmp_path, model_path = trained
        # the spelling the package wrote before format 4: the row ids and
        # the weights as base64 lines of text
        model_path.write_bytes(b"MIXTAG-MODEL 3\nlabels 1\nX\ncatalogue all\nlexicon 0\n"
                               b"attributes 1\nW0=a\nrows 1\nAAAAAA==\nweights\nAAAAAAAA4D8AAAAAAADwPw==\n")
        self._assert_retrain(tmp_path, model_path, capsys, 3)

    def test_features_with_model(self, trained, capsys):
        tmp_path, model_path = trained
        code, out, err = run(["features", "--input", str(tmp_path / "test.txt"),
                              "--model", str(model_path), "--position", "1:1"], capsys)
        assert code == 0, err
        attrs = out.split("\n")[1:-1]
        source = parse_corpus(LEXICON_TEST_TEXT, TEST2COL)
        assert attrs == list(extract_sentence_attributes(
            source.sentences[1], load_lexicon(LEXICON_TEXT), FeatureCatalogue().without("affixes"))[1])
        assert "NORM=kor" in attrs
        assert not any(a.startswith("P1=") for a in attrs)

    @pytest.mark.parametrize("command", ["tag", "features"])
    @pytest.mark.parametrize("data,message", [
        (b"junk\n", "not a model file (bad magic)"),
        (b"", "truncated model file"),
    ], ids=["junk", "empty"])
    def test_bad_model_file_is_named(self, trained, capsys, command, data, message):
        tmp_path, _ = trained
        junk = tmp_path / "junk.txt"
        junk.write_bytes(data)
        output = ["--output", str(tmp_path / "tagged.txt")] if command == "tag" else []
        code, out, err = run(
            [command, "--input", str(tmp_path / "test.txt"), *output, "--model", str(junk)], capsys
        )
        assert code == 2
        assert err == f"mixtag: {junk}: {message}\n"
        assert out == ""
        assert not (tmp_path / "tagged.txt").exists()

    def test_features_model_and_lexicon_is_usage_error(self, trained, capsys):
        tmp_path, model_path = trained
        code, _, err = run(["features", "--input", str(tmp_path / "test.txt"),
                            "--model", str(model_path), "--lexicon", str(tmp_path / "lex.tsv")], capsys)
        assert code == 1
        assert "not allowed with" in err
