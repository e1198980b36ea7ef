"""Unit tests for the VQL shell's command dispatch."""

import pytest

from examples.vql_shell import Shell


@pytest.fixture(scope="module")
def shell():
    s = Shell(n_peers=24, seed=1)
    s.execute(".load words 60")
    return s


class TestCommands:
    def test_help(self, shell):
        assert ".load" in shell.execute(".help")

    def test_load_reports_network(self, shell):
        output = shell.execute(".load words 60")
        assert "24 peers" in output
        assert "60 words" in output

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.execute(".bogus")

    def test_unknown_dataset(self, shell):
        assert "unknown dataset" in shell.execute(".load planets")

    def test_strategy_get_and_set(self, shell):
        assert "strategy:" in shell.execute(".strategy")
        assert "qsamples" in shell.execute(".strategy qsamples")
        shell.execute(".strategy qgrams")

    def test_peers_rebuild(self):
        s = Shell(n_peers=16, seed=2)
        s.execute(".load words 40")
        output = s.execute(".peers 32")
        assert "32 peers" in output

    def test_analyze(self, shell):
        output = shell.execute(".analyze word:text")
        assert "word:text" in output
        assert "rows" in output

    def test_explain(self, shell):
        output = shell.execute(
            ".explain SELECT ?w WHERE { (?o,word:text,?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )
        assert "string_similarity" in output

    def test_stats(self, shell):
        assert "queries" in shell.execute(".stats")

    def test_quit_raises_system_exit(self, shell):
        with pytest.raises(SystemExit):
            shell.execute(".quit")


class TestQueries:
    def test_query_executes(self, shell):
        output = shell.execute(
            "SELECT ?w WHERE { (?o,word:text,?w) } LIMIT 3"
        )
        assert "3 rows" in output
        assert "messages" in output

    def test_syntax_error_reported_not_raised(self, shell):
        output = shell.execute("SELECT bogus syntax {{{")
        assert output.startswith("error:")

    def test_empty_line(self, shell):
        assert shell.execute("   ") == ""
