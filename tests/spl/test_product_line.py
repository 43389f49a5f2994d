"""Tests for the ProductLine container and its Table-1 metrics."""

import pytest

from repro.spl import ProductLine, device_spl, figure1


class TestPipelineCaching:
    def test_ast_parsed_once(self):
        product_line = figure1()
        assert product_line.ast is product_line.ast

    def test_ir_and_icfg_cached(self):
        product_line = figure1()
        assert product_line.ir is product_line.ir
        assert product_line.icfg is product_line.icfg


class TestMetrics:
    def test_kloc(self):
        product_line = figure1()
        expected_lines = len(
            [l for l in product_line.source.splitlines() if l.strip()]
        )
        assert product_line.kloc == pytest.approx(expected_lines / 1000)

    def test_features(self):
        product_line = device_spl()
        assert product_line.features_total == 6
        assert set(product_line.features_reachable) == {
            "Buffering",
            "Checksum",
            "Secure",
            "Encryption",
        }
        assert product_line.configurations_reachable == 16

    def test_annotated_features(self):
        product_line = figure1()
        assert product_line.features_annotated == {"F", "G", "H"}

    def test_valid_configuration_count(self):
        product_line = device_spl()
        # Encryption -> Secure removes the (Encryption & !Secure) quarter.
        assert product_line.count_valid_configurations() == 12

    def test_valid_configurations_enumerated(self):
        product_line = device_spl()
        configs = list(product_line.valid_configurations())
        assert len(configs) == 12
        assert all(isinstance(c, frozenset) for c in configs)
        for config in configs:
            assert not ("Encryption" in config and "Secure" not in config)

    def test_figure1_all_configs_valid(self):
        product_line = figure1()
        assert product_line.count_valid_configurations() == 8
        assert len(list(product_line.valid_configurations())) == 8

    def test_valid_configurations_deterministic(self):
        product_line = device_spl()
        assert list(product_line.valid_configurations()) == list(
            product_line.valid_configurations()
        )
