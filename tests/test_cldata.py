"""Corpus parsing, toy generation, and benchmark synthesis."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clner import cldata
from clner.cldata import (
    Corpus,
    CorpusError,
    Sentence,
    Span,
    SynthesisError,
    TaskSequence,
    TaskSpec,
    default_toy_spec,
    erase_annotations,
    generate_toy_corpus,
    load_benchmark,
    nested_toy_spec,
    parse_corpus,
    permutations,
    save_benchmark,
    split3,
    synthesize,
    write_corpus,
)


class TestParseCorpus:
    def test_simple_iob_sentence(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("John\tB-PER\nruns\tO\n")
        corpus = parse_corpus(path)
        assert len(corpus) == 1
        assert corpus.sentences[0].tokens == ["John", "runs"]
        assert corpus.sentences[0].spans == (Span(1, 1, "PER"),)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("")
        assert len(parse_corpus(path)) == 0

    def test_fewnerd_bare_tags_and_grouping(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "Tom\tperson-actor\nHanks\tperson-actor\nacted\tO\nin\tO\nParis\tlocation-GPE\n"
        )
        corpus = parse_corpus(path)
        assert corpus.sentences[0].spans == (
            Span(1, 2, "person-actor"),
            Span(5, 5, "location-GPE"),
        )
        assert [cldata.coarse_of(t) for t in corpus.inventory] == ["location", "person"]

    def test_orphan_inside_tag_repaired_with_count(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a\tO\nb\tI-PER\nc\tI-ORG\n")
        corpus = parse_corpus(path)
        assert corpus.repair_count == 2
        assert corpus.sentences[0].spans == (Span(2, 2, "PER"), Span(3, 3, "ORG"))

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("good\tO\n\nbad line without tab\n")
        with pytest.raises(CorpusError, match=r"c\.txt:3"):
            parse_corpus(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            parse_corpus(tmp_path / "absent.txt")

    def test_multiple_sentences_blank_line_delimited(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a\tB-X\n\n\nb\tO\nc\tB-Y\n")
        corpus = parse_corpus(path)
        assert [s.tokens for s in corpus.sentences] == [["a"], ["b", "c"]]


class TestNestedSerialization:
    def test_layered_tags_round_trip(self, tmp_path):
        sent = Sentence(
            ["bank", "of", "paris", "opened"],
            (Span(1, 3, "ORG"), Span(3, 3, "LOC")),
        )
        path = tmp_path / "c.txt"
        write_corpus(path, [sent])
        text = path.read_text()
        assert "|" in text  # nested golds need a second layer
        back = parse_corpus(path)
        assert back.sentences[0] == sent

    def test_flat_sentences_stay_single_column(self, tmp_path):
        sent = Sentence(["a", "b"], (Span(1, 1, "X"),))
        path = tmp_path / "c.txt"
        write_corpus(path, [sent])
        assert "|" not in path.read_text()

    def test_round_trip_random_nested_corpora(self, tmp_path):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(1, 8))
            spans = []
            for _ in range(int(rng.integers(0, 5))):
                i = int(rng.integers(1, n + 1))
                j = int(rng.integers(i, n + 1))
                spans.append(Span(i, j, f"T{rng.integers(3)}"))
            sent = Sentence([f"w{k}" for k in range(n)], tuple(set(spans)))
            path = tmp_path / f"c{trial}.txt"
            write_corpus(path, [sent])
            assert parse_corpus(path).sentences[0] == sent


class TestToyCorpus:
    def test_seeded_generation_reproducible(self):
        spec = default_toy_spec(100)
        a = generate_toy_corpus(spec, seed=5)
        b = generate_toy_corpus(spec, seed=5)
        assert a.sentences == b.sentences
        c = generate_toy_corpus(spec, seed=6)
        assert a.sentences != c.sentences

    def test_zero_nesting_has_no_overlapping_golds(self):
        corpus = generate_toy_corpus(default_toy_spec(200, nesting=0.0), seed=1)
        for sent in corpus.sentences:
            spans = sorted(sent.spans)
            for x in range(len(spans)):
                for y in range(x + 1, len(spans)):
                    assert spans[x].end < spans[y].start or spans[y].end < spans[x].start

    def test_every_type_well_represented(self):
        corpus = generate_toy_corpus(default_toy_spec(500), seed=2)
        counts = {t: 0 for t in corpus.inventory}
        for sent in corpus.sentences:
            for span in sent.spans:
                counts[span.type] += 1
        assert len(counts) == 6
        assert all(c >= 20 for c in counts.values()), counts

    def test_nested_spec_produces_nested_pairs(self):
        corpus = generate_toy_corpus(nested_toy_spec(50, nesting=0.6), seed=3)
        nested_pairs = 0
        for sent in corpus.sentences:
            for a in sent.spans:
                for b in sent.spans:
                    if a != b and a.start <= b.start and b.end <= a.end:
                        nested_pairs += 1
        assert nested_pairs >= 5

    def test_empty_lexicon_rejected(self):
        spec = default_toy_spec(10)
        spec.lexicons["PER"] = ()
        with pytest.raises(ValueError):
            generate_toy_corpus(spec, seed=0)

    def test_non_entity_sentences_present(self):
        corpus = generate_toy_corpus(default_toy_spec(300), seed=4)
        assert any(not s.spans for s in corpus.sentences)


class TestSplit3:
    def test_partition_and_determinism(self):
        corpus = generate_toy_corpus(default_toy_spec(100), seed=0)
        train, dev, test = split3(corpus, seed=9)
        assert len(train) + len(dev) + len(test) == 100
        train2, _, _ = split3(corpus, seed=9)
        assert train.sentences == train2.sentences

    def test_bad_fractions_rejected(self):
        corpus = generate_toy_corpus(default_toy_spec(10), seed=0)
        with pytest.raises(ValueError):
            split3(corpus, fractions=(0.5, 0.2, 0.2))


class TestPermutations:
    def test_ontonotes_published_orders(self):
        seqs = permutations("ontonotes")
        assert len(seqs) == 6
        assert [t.name for t in seqs[0].tasks] == ["ORG", "PER", "GPE", "DATE", "CARD", "NORP"]
        assert [t.name for t in seqs[1].tasks] == ["DATE", "NORP", "PER", "CARD", "ORG", "GPE"]
        assert [t.name for t in seqs[5].tasks] == ["PER", "DATE", "CARD", "GPE", "NORP", "ORG"]
        for seq in seqs:
            assert sorted(seq.all_types()) == sorted(cldata.ONTONOTES_TYPES)

    def test_fewnerd_published_orders(self, tmp_path):
        lines = []
        for coarse in cldata.FEWNERD_COARSE:
            lines.append(f"w\t{coarse}-x\n\n")
        path = tmp_path / "c.txt"
        path.write_text("".join(lines))
        corpus = parse_corpus(path)
        seqs = permutations("fewnerd", corpus=corpus)
        assert len(seqs) == 4
        assert [t.name for t in seqs[0].tasks] == list(cldata.FEWNERD_COARSE)
        assert [t.name for t in seqs[2].tasks] == [
            "product", "event", "other", "person",
            "art", "location", "building", "organization",
        ]
        # each task carries the coarse group's fine types
        assert seqs[0].tasks[0].types == ("location-x",)

    def test_toy_orders_seeded(self):
        corpus = generate_toy_corpus(default_toy_spec(50), seed=0)
        a = permutations("toy", corpus=corpus, n_tasks=3, count=4, seed=7)
        b = permutations("toy", corpus=corpus, n_tasks=3, count=4, seed=7)
        assert a == b
        assert len(a) == 4
        for seq in a:
            assert len(seq.tasks) == 3
            assert sorted(seq.all_types()) == sorted(corpus.inventory)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            permutations("conll03")

    def test_overlapping_tasks_rejected(self):
        with pytest.raises(ValueError):
            TaskSequence(
                (TaskSpec("a", ("PER",)), TaskSpec("b", ("PER", "ORG"))), permutation=1
            )

    def test_type_repeated_within_a_task_rejected(self):
        with pytest.raises(ValueError, match=r"repeat within or across tasks: \['ORG'\]"):
            TaskSequence((TaskSpec("a", ("ORG", "PER", "ORG")),), permutation=1)


class TestEraseAnnotations:
    def test_identity_when_all_allowed(self):
        s = Sentence(["a", "b"], (Span(1, 1, "PER"), Span(2, 2, "ORG")))
        assert erase_annotations(s, {"PER", "ORG"}) == s

    def test_empty_allowed_strips_everything(self):
        s = Sentence(["a", "b"], (Span(1, 1, "PER"),))
        assert erase_annotations(s, set()).spans == ()

    def test_set_filter(self):
        s = Sentence(["a", "b"], (Span(1, 1, "PER"), Span(2, 2, "ORG")))
        assert erase_annotations(s, {"ORG"}).spans == (Span(2, 2, "ORG"),)

    @given(st.sets(st.sampled_from(["PER", "ORG", "LOC"])))
    def test_idempotent(self, allowed):
        s = Sentence(
            ["a", "b", "c"],
            (Span(1, 1, "PER"), Span(2, 3, "ORG"), Span(3, 3, "LOC")),
        )
        once = erase_annotations(s, allowed)
        assert erase_annotations(once, allowed) == once


def toy_benchmark(setup, n=120, seed=0, n_tasks=3):
    corpus = generate_toy_corpus(default_toy_spec(n), seed=seed)
    train, dev, test = split3(corpus, seed=seed)
    seq = permutations("toy", corpus=corpus, n_tasks=n_tasks, count=1, seed=seed)[0]
    return synthesize(train, dev, test, seq, setup, seed=seed), train, dev, test


class TestSynthesize:
    def test_split_is_a_partition(self):
        bench, train, _, _ = toy_benchmark("split-all")
        all_ids = []
        for task in bench.tasks:
            all_ids.extend(id(s) for s in task.train_full)
        assert len(all_ids) == len(set(all_ids)) == len(train)
        originals = {id(s) for s in train.sentences}
        assert set(all_ids) == originals

    def test_filter_train_membership(self):
        bench, _, _, _ = toy_benchmark("filter-all")
        for task in bench.tasks:
            wanted = set(task.spec.types)
            for sent in task.train_full:
                assert sent.types_present() & wanted

    def test_multi_type_sentence_in_both_filter_tasks_but_one_split_task(self):
        corpus = generate_toy_corpus(default_toy_spec(150), seed=1)
        train, dev, test = split3(corpus, seed=1)
        seq = TaskSequence(
            (
                TaskSpec("t1", ("PER", "DATE")),
                TaskSpec("t2", ("LOC", "EVT")),
                TaskSpec("t3", ("ORG", "PROD")),
            ),
            permutation=1,
        )
        # a sentence mentioning both PER and ORG lands in tasks 1 and 3
        # under filter, exactly one group under split
        rich = [
            s
            for s in train.sentences
            if {"PER", "ORG"} <= s.types_present()
        ]
        assert rich, "toy corpus must contain PER+ORG sentences for this test"
        probe = rich[0]
        filt = synthesize(train, dev, test, seq, "filter-all", seed=0)
        memberships = [
            any(s is probe for s in task.train_full) for task in filt.tasks
        ]
        assert memberships == [True, False, True]
        split = synthesize(train, dev, test, seq, "split-all", seed=0)
        split_memberships = [
            any(s is probe for s in task.train_full) for task in split.tasks
        ]
        assert sum(split_memberships) == 1

    def test_split_keeps_non_entity_sentences(self):
        bench, train, _, _ = toy_benchmark("split-all", n=300)
        empty_total = sum(
            1 for task in bench.tasks for s in task.train_full if not s.spans
        )
        assert empty_total == sum(1 for s in train.sentences if not s.spans)
        assert empty_total > 0

    def test_annotation_allowances_all_setups(self):
        for setup in cldata.SETUPS:
            bench, _, _, _ = toy_benchmark(setup)
            for l, task in enumerate(bench.tasks, start=1):
                allowed = set(task.spec.types)
                for sent in task.train + task.dev:
                    assert sent.types_present() <= allowed
                cumulative = set(bench.sequence.cumulative_types(l))
                for sent in task.test:
                    assert sent.types_present() <= cumulative

    def test_filter_test_membership(self):
        bench, _, _, test = toy_benchmark("split-filter")
        for l, task in enumerate(bench.tasks, start=1):
            cumulative = set(bench.sequence.cumulative_types(l))
            kept = [
                s for s in test.sentences if s.types_present() & cumulative
            ]
            assert len(task.test) == len(kept)

    def test_all_test_is_whole_test_set(self):
        bench, _, _, test = toy_benchmark("filter-all")
        for task in bench.tasks:
            assert len(task.test) == len(test)

    def test_unknown_setup_rejected(self):
        corpus = generate_toy_corpus(default_toy_spec(30), seed=0)
        train, dev, test = split3(corpus, seed=0)
        seq = permutations("toy", corpus=corpus, count=1)[0]
        with pytest.raises(ValueError):
            synthesize(train, dev, test, seq, "split", seed=0)

    def test_zero_training_sentences_rejected(self):
        # a task over a type with no mentions in train cannot be built
        sentences = [Sentence(["a"], (Span(1, 1, "PER"),))]
        train = Corpus(sentences, inventory=("PER", "GHOST"))
        dev = Corpus(list(sentences), inventory=("PER", "GHOST"))
        test = Corpus(list(sentences), inventory=("PER", "GHOST"))
        seq = TaskSequence(
            (TaskSpec("a", ("GHOST",)), TaskSpec("b", ("PER",))), permutation=1
        )
        with pytest.raises(SynthesisError):
            synthesize(train, dev, test, seq, "filter-all", seed=0)

    def test_sequence_type_outside_inventory_rejected(self):
        corpus = generate_toy_corpus(default_toy_spec(30), seed=0)
        train, dev, test = split3(corpus, seed=0)
        seq = TaskSequence((TaskSpec("a", ("NOPE",)),), permutation=1)
        with pytest.raises(SynthesisError):
            synthesize(train, dev, test, seq, "split-all", seed=0)

    def test_noncl_union_restores_cumulative_annotations(self):
        bench, _, _, _ = toy_benchmark("split-all")
        step = 2
        union = bench.noncl_train(step)
        assert len(union) == sum(len(t.train_full) for t in bench.tasks[:step])
        cumulative = set(bench.sequence.cumulative_types(step))
        seen = set()
        for sent in union:
            seen |= sent.types_present()
            assert sent.types_present() <= cumulative
        # restored annotations go beyond any single task's allowance
        assert seen == cumulative & {
            s.type for t in bench.tasks[:step] for x in t.train_full for s in x.spans
        }


class TestBenchmarkRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        bench, _, _, _ = toy_benchmark("split-filter", n=80)
        save_benchmark(bench, tmp_path / "bench")
        loaded = load_benchmark(tmp_path / "bench")
        assert loaded.setup == bench.setup
        assert loaded.kind == bench.kind
        assert loaded.sequence == bench.sequence
        assert loaded.inventory == bench.inventory
        assert loaded.vocab_tokens == bench.vocab_tokens
        for a, b in zip(loaded.tasks, bench.tasks):
            assert a.train == b.train
            assert a.dev == b.dev
            assert a.test == b.test
            assert a.train_full == b.train_full
            assert a.dev_full == b.dev_full

    def test_load_rejects_non_benchmark_dir(self, tmp_path):
        with pytest.raises(CorpusError):
            load_benchmark(tmp_path)
