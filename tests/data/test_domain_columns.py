"""The columnar view of a schema, and schemas built from it."""

import numpy as np

from repro.data import DomainColumns, Schema, random_schema


def _schema(n_features: int = 9) -> Schema:
    return random_schema(np.random.default_rng(4), n_features=n_features)


class TestDomainColumns:
    def test_round_trip(self):
        schema = _schema()
        rebuilt = Schema.from_columns(schema.columns())
        assert rebuilt == schema
        assert repr(rebuilt) == repr(schema)

    def test_layout(self):
        schema = _schema()
        columns = schema.columns()
        assert columns.names == schema.feature_names
        assert columns.is_categorical.tolist() == [
            f.is_categorical for f in schema]
        assert columns.mean.tolist() == [
            f.numeric.mean for f in schema if not f.is_categorical]
        assert columns.unique_values.tolist() == [
            f.categorical.unique_values for f in schema if f.is_categorical]

    def test_head_matches_truncated_specs(self):
        schema = _schema(20)
        for n in (0, 1, 7, 20, 25):
            head = Schema.from_columns(schema.columns().head(n))
            assert head == Schema(features=schema.features[:n])

    def test_column_built_schema_defers_specs(self):
        columns = _schema().columns()
        schema = Schema.from_columns(columns)
        assert len(schema) == 9
        assert schema.columns() is columns
        assert schema._features is None
        specs = schema.features
        assert schema.features is specs
        # Once read, the specs are authoritative.
        specs[0].name = "renamed"
        assert schema.columns().names[0] == "renamed"

    def test_empty(self):
        columns = Schema().columns()
        assert isinstance(columns, DomainColumns)
        assert columns.names == [] and columns.mean.shape == (0,)
        assert len(Schema.from_columns(columns)) == 0
