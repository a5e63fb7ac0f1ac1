"""The pluggable engine registry: resolution, interning, per-stage
overrides and third-party registration."""

import pytest

from repro import engines
from repro.engines import EngineSelection, EngineSpec
from repro.errors import UnknownEngineError
from repro.hmm import sample_hmm
from repro.options import SearchOptions
from repro.sequence.synthetic import homolog_database


class TestResolve:
    def test_bare_names_and_aliases_intern(self):
        assert engines.resolve("cpu_sse") is engines.resolve("cpu")
        assert engines.resolve("gpu") is engines.resolve("gpu_warp")
        assert SearchOptions(engine="gpu").engine is engines.resolve("gpu_warp")
        assert SearchOptions(engine="gpu").engine.value == "gpu_warp"

    def test_unknown_engine_names_the_registry(self):
        with pytest.raises(UnknownEngineError) as exc:
            engines.resolve("tpu")
        msg = str(exc.value)
        for name in engines.list_engines():
            assert name in msg

    def test_list_engines_contains_builtins(self):
        names = engines.list_engines()
        for expected in ("cpu_sse", "gpu_warp", "gpu_warp_batched", "mp"):
            assert expected in names

    def test_per_stage_mapping_precedence(self):
        sel = engines.resolve(
            {"msv": "gpu_warp_batched", "*": "cpu_sse"}
        )
        assert sel.for_stage("msv") == "gpu_warp_batched"
        assert sel.for_stage("p7viterbi") == "cpu_sse"
        assert not sel.pooled

    def test_mapping_string_form(self):
        sel = engines.resolve("msv=gpu_warp_batched,p7viterbi=mp")
        assert sel.for_stage("msv") == "gpu_warp_batched"
        assert sel.for_stage("p7viterbi") == "mp"
        # interned against the equivalent dict form
        assert sel is engines.resolve(
            {"msv": "gpu_warp_batched", "p7viterbi": "mp"}
        )

    def test_all_stages_same_engine_collapses(self):
        sel = engines.resolve({"msv": "mp", "p7viterbi": "mp"})
        assert sel is engines.resolve("mp")
        assert sel.value == "mp"

    def test_unknown_stage_rejected(self):
        with pytest.raises(UnknownEngineError, match="unknown stage"):
            engines.resolve({"forward": "cpu_sse"})

    def test_value_round_trips(self):
        sel = engines.resolve({"msv": "gpu_warp_batched", "*": "mp"})
        assert engines.resolve(sel.value) is sel

    def test_selection_resolves_to_itself(self):
        sel = engines.resolve("gpu_warp_batched")
        assert engines.resolve(sel) is sel


class TestRegistration:
    @pytest.fixture
    def scratch_engine(self):
        name = "test_scratch_engine"
        yield name
        engines._REGISTRY.pop(name, None)

    def test_register_and_dispatch(self, scratch_engine, rng):
        calls = []
        reference = engines.get("cpu_sse")

        def scorer(stage, profile, database, **kw):
            calls.append(stage)
            return reference.scorer(stage, profile, database, **kw)

        engines.register(EngineSpec(
            name=scratch_engine,
            stages=("msv", "p7viterbi"),
            scorer=scorer,
            description="test-only delegate",
        ))
        assert scratch_engine in engines.list_engines()

        hmm = sample_hmm(40, rng)
        db = homolog_database(12, 80, rng, hmm=hmm, homolog_fraction=0.5)
        import repro

        res = repro.search(hmm, db, SearchOptions(engine=scratch_engine))
        ref = repro.search(hmm, db, SearchOptions(engine="cpu_sse"))
        assert "msv" in calls
        assert [h.name for h in res.hits] == [h.name for h in ref.hits]

    def test_register_unknown_stage_rejected(self):
        with pytest.raises(UnknownEngineError, match="unknown stage"):
            engines.register(EngineSpec(
                name="bad", stages=("forward",), scorer=lambda *a, **k: None,
            ))

    def test_stage_capability_checked_in_mapping(self, scratch_engine):
        engines.register(EngineSpec(
            name=scratch_engine, stages=("msv",),
            scorer=lambda *a, **k: None,
        ))
        with pytest.raises(UnknownEngineError, match="does not implement"):
            engines.resolve({"p7viterbi": scratch_engine})


class TestFacade:
    def test_registry_exported_through_facade(self):
        import repro

        assert repro.list_engines() == engines.list_engines()
        assert repro.get_engine("gpu_warp_batched").name == "gpu_warp_batched"
        assert repro.register_engine is engines.register
        assert repro.EngineSpec is EngineSpec

    def test_options_accept_mapping(self):
        opts = SearchOptions(
            engine={"msv": "gpu_warp_batched", "p7viterbi": "mp"}
        )
        assert isinstance(opts.engine, EngineSelection)
        assert opts.engine.for_stage("p7viterbi") == "mp"

    def test_search_many_matches_cpu_reference(self, rng):
        import repro

        hmm = sample_hmm(40, rng)
        db = homolog_database(20, 80, rng, hmm=hmm, homolog_fraction=0.5)
        many = repro.search_many(hmm, db)  # defaults to gpu_warp_batched
        ref = repro.search(hmm, db, SearchOptions(engine="cpu_sse"))
        assert [(h.name, h.msv_bits, h.vit_bits, h.fwd_bits) for h in many.hits] \
            == [(h.name, h.msv_bits, h.vit_bits, h.fwd_bits) for h in ref.hits]

    def test_search_many_accepts_sequence_iterable(self, rng):
        import repro

        hmm = sample_hmm(30, rng)
        db = homolog_database(10, 70, rng, hmm=hmm, homolog_fraction=1.0)
        via_iter = repro.search_many(hmm, list(db))
        via_db = repro.search_many(hmm, db)
        assert [h.name for h in via_iter.hits] == [h.name for h in via_db.hits]
