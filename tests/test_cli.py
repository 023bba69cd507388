import socket

import pytest

from wot.cli import main
from wot.net import start_server
from wot.group import setup_params
from wot.protocol import load_bundle, load_secrets

from conftest import write_catalog_dir


@pytest.fixture
def catalog_dir(tmp_path):
    return write_catalog_dir(tmp_path / "catalog", [
        ("paper-a", 1, b"contents of paper a"),
        ("paper-b", 2, b"contents of paper b"),
        ("paper-c", 3, b"contents of paper c"),
        ("paper-d", 7, b"contents of paper d"),
    ])


def test_publish_creates_bundle(catalog_dir, tmp_path, capsys):
    out = tmp_path / "bundle"
    rc = main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
               "--out", str(out), "--group", "p23"])
    assert rc == 0
    assert (out / "manifest.bin").is_file()
    assert (out / "paper-a.ct").is_file()
    assert (out / "sender_secrets.bin").is_file()
    bundle = load_bundle(out)
    assert bundle.manifest.weights == (1, 2, 3, 7)
    assert "13 shares" in capsys.readouterr().out


def test_publish_seeded_is_reproducible(catalog_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("WOT_SEED", "420")
    main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
          "--out", str(tmp_path / "b1"), "--group", "p23"])
    main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
          "--out", str(tmp_path / "b2"), "--group", "p23"])
    assert (tmp_path / "b1" / "paper-a.ct").read_bytes() == \
        (tmp_path / "b2" / "paper-a.ct").read_bytes()
    assert load_secrets(tmp_path / "b1") == load_secrets(tmp_path / "b2")


def test_serve_refuses_seed(catalog_dir, tmp_path, monkeypatch, capsys):
    out = tmp_path / "bundle"
    main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
          "--out", str(out), "--group", "p23"])
    monkeypatch.setenv("WOT_SEED", "7")
    rc = main(["serve", "--bundle", str(out), "--listen", "127.0.0.1:0"])
    assert rc == 2
    assert "reproducible tests only" in capsys.readouterr().err


def test_buy_against_running_server(catalog_dir, tmp_path, capsys):
    out = tmp_path / "bundle"
    main(["publish", "--catalog", str(catalog_dir), "--mode", "p1",
          "--out", str(out), "--group", "p23"])
    bundle = load_bundle(out)
    server = start_server(bundle, load_secrets(out), setup_params("p23"))
    try:
        rc = main(["buy", "--server", f"127.0.0.1:{server.port}",
                   "--items", "paper-a,paper-c", "--out", str(tmp_path / "got")])
    finally:
        server.shutdown()
        server.server_close()
    assert rc == 0
    assert (tmp_path / "got" / "paper-a").read_bytes() == b"contents of paper a"
    assert (tmp_path / "got" / "paper-c").read_bytes() == b"contents of paper c"
    assert "total paid: 4" in capsys.readouterr().out


def test_audit_exit_codes(tmp_path, capsys):
    unsafe = tmp_path / "unsafe.txt"
    unsafe.write_text("1\n2\n4\n8\n")
    assert main(["audit", "--prices", str(unsafe)]) == 1
    assert "UNSAFE" in capsys.readouterr().out

    ok = tmp_path / "ok.txt"
    ok.write_text("# four equal prices\n1\n1\n1\n1\n")
    assert main(["audit", "--prices", str(ok)]) == 0
    assert "verdict=OK" in capsys.readouterr().out


def test_reduce_gcd_and_approx(tmp_path, capsys):
    prices = tmp_path / "prices.txt"
    prices.write_text("100\n200\n300\n700\n")
    assert main(["reduce", "--prices", str(prices)]) == 0
    out = capsys.readouterr().out
    assert "q=100" in out and "exact=yes" in out

    prices.write_text("105\n190\n307\n689\n")
    assert main(["reduce", "--prices", str(prices), "--q", "100"]) == 0
    out = capsys.readouterr().out
    assert "exact=no" in out
    assert "105\t1\t100" in out


def test_reduce_suggests_divisors_when_gcd_is_one(tmp_path, capsys):
    prices = tmp_path / "prices.txt"
    prices.write_text("105\n190\n307\n689\n")
    main(["reduce", "--prices", str(prices)])
    assert "candidate divisors" in capsys.readouterr().out


def test_privacy_test_command(capsys, monkeypatch):
    monkeypatch.setenv("WOT_SEED", "99")
    rc = main(["privacy-test", "--weights", "1,2,3", "--choice-a", "0,1",
               "--choice-b", "2", "--sessions", "5000", "--group", "p23"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out


def test_privacy_test_unequal_totals_refused(capsys):
    rc = main(["privacy-test", "--weights", "1,2,3", "--choice-a", "0",
               "--choice-b", "2", "--sessions", "100", "--group", "p23"])
    assert rc == 2
    assert "different totals" in capsys.readouterr().err


def test_manifest_dump(catalog_dir, tmp_path, capsys):
    out = tmp_path / "bundle"
    main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
          "--out", str(out), "--group", "p23"])
    capsys.readouterr()
    assert main(["manifest", "--bundle", str(out)]) == 0
    text = capsys.readouterr().out
    assert "mode=p2 group=p23" in text
    assert "paper-d\t7\t" in text


def test_error_reporting(tmp_path, capsys):
    rc = main(["publish", "--catalog", str(tmp_path / "nope"), "--mode", "p2",
               "--out", str(tmp_path / "b"), "--group", "p23"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_host_port(tmp_path, capsys):
    rc = main(["buy", "--server", "nocolon", "--items", "a",
               "--out", str(tmp_path)])
    assert rc == 2


def test_buy_transport_error_is_one_line(tmp_path, capsys):
    with socket.socket() as probe:  # a port that was free a moment ago
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    rc = main(["buy", "--server", f"127.0.0.1:{port}", "--items", "a",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot connect to 127.0.0.1:")
    assert len(err.splitlines()) == 1
