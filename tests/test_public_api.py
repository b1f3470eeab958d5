"""Contract tests on the public API surface and the error hierarchy."""

import pytest

import repro
from repro.errors import (
    ConfigError,
    DatasetError,
    DiscoveryError,
    GraphError,
    JoinError,
    ModelError,
    ReproError,
    SchemaError,
    SelectionError,
)


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "name",
        [
            "AutoFeat",
            "AutoFeatConfig",
            "Table",
            "Column",
            "DType",
            "DatasetRelationGraph",
            "KFKConstraint",
            "JoinPath",
            "DiscoveryResult",
            "AugmentationResult",
        ],
    )
    def test_name_exported(self, name):
        assert hasattr(repro, name)
        assert name in repro.__all__

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SchemaError,
            JoinError,
            GraphError,
            SelectionError,
            ModelError,
            DiscoveryError,
            ConfigError,
            DatasetError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_one_except_clause_catches_everything(self):
        from repro.dataframe import Table

        with pytest.raises(ReproError):
            Table({"a": [1]}).column("missing")


class TestSubpackageExports:
    def test_subpackage_all_resolves(self):
        import repro.baselines
        import repro.bench
        import repro.core
        import repro.dataframe
        import repro.datasets
        import repro.discovery
        import repro.graph
        import repro.ml
        import repro.selection

        for module in (
            repro.core,
            repro.dataframe,
            repro.graph,
            repro.discovery,
            repro.selection,
            repro.ml,
            repro.baselines,
            repro.datasets,
            repro.bench,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
