"""SearchOptions: defaults, coercion, docs, and the options-object
constructors."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.errors import PipelineError
from repro.hardening import SALVAGE, STRICT
from repro.kernels.memconfig import MemoryConfig
from repro.engines import resolve
from repro.options import SearchOptions, field_doc


class TestSearchOptions:
    def test_defaults(self):
        o = SearchOptions()
        assert o.engine is resolve("cpu_sse")
        assert o.config is MemoryConfig.SHARED
        assert o.thresholds is None
        assert o.selfcheck == 0
        assert o.guard is True
        assert o.policy is STRICT
        assert o.quarantine is None
        assert o.tracer is None

    def test_frozen(self):
        o = SearchOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            o.selfcheck = 3

    def test_engine_string_coercion(self):
        assert SearchOptions(engine="gpu").engine is resolve("gpu_warp")
        assert SearchOptions(engine="cpu").engine is resolve("cpu_sse")
        assert SearchOptions(engine="gpu_warp").engine is resolve("gpu_warp")

    def test_bad_engine_raises(self):
        with pytest.raises(PipelineError):
            SearchOptions(engine="tpu")

    def test_negative_selfcheck_raises(self):
        with pytest.raises(PipelineError):
            SearchOptions(selfcheck=-1)

    def test_with_returns_modified_copy(self):
        o = SearchOptions()
        o2 = o.with_(engine="gpu", selfcheck=2)
        assert o2.engine is resolve("gpu_warp") and o2.selfcheck == 2
        assert o.engine is resolve("cpu_sse")  # original untouched

    def test_every_field_has_doc(self):
        for name in SearchOptions.__dataclass_fields__:
            doc = field_doc(name)
            assert isinstance(doc, str) and doc

    def test_field_doc_unknown_name(self):
        with pytest.raises(PipelineError):
            field_doc("warp_speed")


class TestPipelineShim:
    def test_service_options_object_is_silent(self):
        from repro.service import BatchSearchService

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = BatchSearchService(
                options=SearchOptions(selfcheck=2, policy=SALVAGE)
            )
        assert service.options.selfcheck == 2
        assert service.options.policy is SALVAGE

    def test_options_object_is_the_only_way_in(self):
        """No SearchOptions field is duplicated as a keyword argument."""
        import inspect

        from repro.pipeline.pipeline import HmmsearchPipeline
        from repro.service import BatchSearchService, Scheduler

        fields = set(SearchOptions.__dataclass_fields__)
        for fn in (HmmsearchPipeline.search, Scheduler.__init__,
                   BatchSearchService.__init__):
            params = set(inspect.signature(fn).parameters)
            assert not params & fields, fn.__qualname__
