"""Graph serialization round-trip tests."""

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_digraph
from repro.graph.io import read_edge_list, write_edge_list


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = gnp_digraph(20, 0.15, seed=1)
        path = tmp_path / "g.el"
        write_edge_list(g, path)
        h = read_edge_list(path, n=g.n)
        assert g == h

    def test_header_comment_ignored(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# comment\n% other comment\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.n == 3 and g.m == 2

    def test_forced_vertex_count(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1\n")
        assert read_edge_list(path, n=10).n == 10

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="expected"):
            read_edge_list(path)

    def test_no_header_mode(self, tmp_path):
        g = DiGraph(3, [(0, 1)])
        path = tmp_path / "g.el"
        write_edge_list(g, path, header=False)
        assert not path.read_text().startswith("#")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.el"
        path.write_text("")
        g = read_edge_list(path)
        assert g.n == 0 and g.m == 0
