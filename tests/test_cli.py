"""Tests for the command-line interface."""

import pytest

from repro.adverts import generate_advertisements
from repro.cli import main
from repro.dtd import enumerate_paths, is_recursive, nitf_dtd, psd_dtd


# The advertisement and path listings of the bundled sample DTDs are read
# from the library, not the command line; these pin what they contain.
class TestAdverts:
    def test_sample_psd_list(self):
        out = {str(advert) for advert in generate_advertisements(psd_dtd())}
        assert "/ProteinDatabase/ProteinEntry/sequence" in out

    def test_sample_nitf_stats(self):
        dtd = nitf_dtd()
        assert is_recursive(dtd)
        kinds = {advert.kind for advert in generate_advertisements(dtd)}
        assert "simple-recursive" in kinds


class TestPaths:
    def test_psd_paths(self):
        out = ["/" + "/".join(path) for path in enumerate_paths(psd_dtd(), 10)]
        assert "/ProteinDatabase/ProteinEntry/header/uid" in out
        assert len(out) == 52


class TestErrors:
    def test_a_repro_error_exits_2_with_a_message(self, capsys):
        rc = main(["simulate", "--levels", "2", "--faults", "bogus=1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_single_strategy_run(self, capsys):
        rc = main(
            [
                "simulate",
                "--levels",
                "2",
                "--xpes",
                "5",
                "--documents",
                "2",
                "--strategy",
                "with-Adv-with-Cov",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "with-Adv-with-Cov" in out
        assert "network_traffic" in out


class TestAudit:
    def test_single_scenario_clean(self, capsys):
        rc = main(
            [
                "audit",
                "--scenario",
                "fault-free",
                "--xpes",
                "6",
                "--documents",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault-free" in out
        assert "audit OK" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["audit", "--scenario", "no-such-scenario"])
