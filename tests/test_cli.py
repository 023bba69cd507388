import logging
import os
import random
import shutil
import socket
import socketserver
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import wot
from wot.base_ot import batch_binding
from wot.cli import main
from wot.framing import encode_manifest
from wot.protocol import load_bundle, load_secrets

from conftest import billed_lines, count_calls, seed_source, serving, write_catalog_dir


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


def test_seed_variable_seeds_nothing(catalog_dir, tmp_path, monkeypatch):
    """``WOT_SEED`` is not read: publish, serve and buy all draw fresh randomness."""
    monkeypatch.setenv("WOT_SEED", "420")
    for name in ("b1", "b2"):
        assert main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
                     "--out", str(tmp_path / name), "--group", "p23"]) == 0
    for item in ("paper-a", "paper-b", "paper-c", "paper-d"):
        assert (tmp_path / "b1" / f"{item}.ct").read_bytes() != \
            (tmp_path / "b2" / f"{item}.ct").read_bytes()
    shares = [load_secrets(tmp_path / name).flat_secrets for name in ("b1", "b2")]
    assert set(shares[0]).isdisjoint(shares[1])

    served = []

    def serve_once(server):
        served.append(server.port)
        server.server_close()

    with monkeypatch.context() as patch:
        patch.setattr(socketserver.BaseServer, "serve_forever", serve_once)
        assert main(["serve", "--bundle", str(tmp_path / "b1"), "--listen", "127.0.0.1:0"]) == 0
    assert len(served) == 1

    batches = count_calls(monkeypatch, batch_binding)  # each query, as both sides see it
    with serving(load_bundle(tmp_path / "b1"), load_secrets(tmp_path / "b1")) as server:
        for k in range(2):
            assert main(["buy", "--server", f"127.0.0.1:{server.port}",
                         "--items", "paper-c,paper-d", "--out", str(tmp_path / f"got{k}")]) == 0
    assert len(batches) == 4 and len({queries for _, queries in batches}) == 2


def _run_cli(*args, timeout=30):
    """Run a command in a fresh interpreter, as an operator would."""
    env = dict(os.environ, PYTHONPATH=str(Path(wot.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_cli_import_loads_no_scipy_or_numpy():
    """``wot`` needs neither at run time; loading them costs every command."""
    proc = _run_cli("-c", "import sys, wot.cli; "
                          "print(sorted({'scipy', 'numpy'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    namespace = {}
    exec("from wot import *", namespace)  # raises on a name ``wot`` lacks
    assert set(wot.__all__) <= namespace.keys()


def test_privacy_test_needs_no_scipy():
    """Three sessions leave most of the 11 query elements unseen: empty columns."""
    argv = ["privacy-test", "--weights", "1,2,3", "--choice-a", "0,1",
            "--choice-b", "2", "--sessions", "3"]
    proc = _run_cli("-c", "import sys; sys.modules['scipy'] = None; "
                          f"from wot.cli import main; sys.exit(main({argv!r}))")
    assert proc.returncode in (0, 1), proc.stderr  # 1: a FAIL verdict
    assert proc.stderr == ""
    assert "verdict: " in proc.stdout


def test_serve_refuses_corrupt_ciphertext(catalog_dir, tmp_path):
    out = tmp_path / "bundle"
    main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
          "--out", str(out), "--group", "p23"])
    ct = out / "paper-b.ct"
    raw = bytearray(ct.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    ct.write_bytes(bytes(raw))
    proc = _run_cli("-m", "wot.cli", "serve", "--bundle", str(out),
                    "--listen", "127.0.0.1:0")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: ciphertext digest mismatch for item 'paper-b'"]
    assert proc.stdout == ""


def test_buy_against_running_server(catalog_dir, tmp_path, capsys):
    out = tmp_path / "bundle"
    main(["publish", "--catalog", str(catalog_dir), "--mode", "p1",
          "--out", str(out), "--group", "p23"])
    with serving(load_bundle(out), load_secrets(out)) as server:
        rc = main(["buy", "--server", f"127.0.0.1:{server.port}",
                   "--items", "paper-a,paper-c", "--out", str(tmp_path / "got")])
    assert rc == 0
    assert (tmp_path / "got" / "paper-a").read_bytes() == b"contents of paper a"
    assert (tmp_path / "got" / "paper-c").read_bytes() == b"contents of paper c"
    assert "total paid: 4" in capsys.readouterr().out


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    return err


@pytest.fixture
def p23_bundle(catalog_dir, tmp_path):
    out = tmp_path / "bundle"
    main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
          "--out", str(out), "--group", "p23"])
    return out


def test_buy_checks_out_before_paying(p23_bundle, tmp_path, capsys, caplog):
    caplog.set_level(logging.INFO, logger="wot.server")
    blocker = tmp_path / "a-file"
    blocker.write_bytes(b"")
    with serving(load_bundle(p23_bundle), load_secrets(p23_bundle)) as server:
        rc = main(["buy", "--server", f"127.0.0.1:{server.port}",
                   "--items", "paper-a", "--out", str(blocker / "got")])
        assert billed_lines(caplog, count=1, timeout=0.5) == []
    assert rc == 2
    assert "Not a directory" in _one_error_line(capsys)


@pytest.fixture
def never_serves(monkeypatch):
    """A ``wot serve`` that gets as far as serving fails the test instead of blocking it."""
    def serve_forever(server, poll_interval=0.5):
        server.server_close()
        raise AssertionError("started serving")

    monkeypatch.setattr(socketserver.BaseServer, "serve_forever", serve_forever)


def test_serve_refuses_secrets_of_another_bundle(tmp_path, never_serves, capsys):
    """Each mismatch is refused by ``SenderServer`` (``tests/test_net.py::TestStartUp``)."""
    for name, prices in (("a", (1, 2, 3)), ("b", (1, 2, 3, 4))):
        catalog = write_catalog_dir(tmp_path / f"catalog-{name}", [
            (f"item{i}", w, b"payload %d" % i) for i, w in enumerate(prices)])
        assert main(["publish", "--catalog", str(catalog), "--out", str(tmp_path / name),
                     "--mode", "p2", "--group", "p23"]) == 0
    shutil.copy(tmp_path / "b" / "sender_secrets.bin", tmp_path / "a")
    capsys.readouterr()
    assert main(["serve", "--bundle", str(tmp_path / "a"), "--listen", "127.0.0.1:0"]) == 2
    assert _one_error_line(capsys) == "error: secrets hold 10 shares, the bundle prices 6\n"


def test_serve_refuses_unknown_group(p23_bundle, never_serves, capsys):
    manifest = load_bundle(p23_bundle).manifest
    (p23_bundle / "manifest.bin").write_bytes(
        encode_manifest(replace(manifest, group_id="toy-g4")))
    capsys.readouterr()
    assert main(["serve", "--bundle", str(p23_bundle), "--listen", "127.0.0.1:0"]) == 2
    assert _one_error_line(capsys) == "error: unknown group preset 'toy-g4'\n"


def test_serve_on_busy_port_is_one_line(p23_bundle, capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        rc = main(["serve", "--bundle", str(p23_bundle),
                   "--listen", f"127.0.0.1:{taken.getsockname()[1]}"])
    assert rc == 2
    assert "Address already in use" in _one_error_line(capsys)


def test_serve_on_unresolvable_host_is_one_line(p23_bundle, monkeypatch, capsys):
    def no_such_host(server):  # stands in for the resolver, so no lookup leaves the machine
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(socketserver.TCPServer, "server_bind", no_such_host)
    assert main(["serve", "--bundle", str(p23_bundle), "--listen", "no-such-host:7000"]) == 2
    assert "Name or service not known" in _one_error_line(capsys)


def test_serve_refuses_port_past_65535(p23_bundle, capsys):
    assert main(["serve", "--bundle", str(p23_bundle), "--listen", "127.0.0.1:99999"]) == 2
    assert _one_error_line(capsys) == \
        "error: expected HOST:PORT with a port up to 65535, got '127.0.0.1:99999'\n"


def test_publish_non_utf8_catalog_is_one_line(catalog_dir, tmp_path, capsys):
    source = catalog_dir / "items.tsv"
    text = source.read_bytes()
    source.write_bytes(text + b"# caf\xe9\n")
    rc = main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
               "--out", str(tmp_path / "bundle"), "--group", "p23"])
    assert rc == 2
    assert _one_error_line(capsys) == \
        f"error: {source}: not UTF-8 text (byte {len(text) + 5})\n"


def test_publish_to_unwritable_out_is_one_line(catalog_dir, tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_bytes(b"")
    rc = main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
               "--out", str(blocker / "bundle"), "--group", "p23"])
    assert rc == 2
    assert "Not a directory" in _one_error_line(capsys)


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


def test_reduce_large_coprime_prices_finish(tmp_path):
    """Trial division stops at a fixed bound, not at the median's square root."""
    prices = tmp_path / "prices.txt"
    prices.write_text(f"{10**24}\n{10**24 + 7}\n")
    proc = _run_cli("-m", "wot.cli", "reduce", "--prices", str(prices), timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "candidate divisors" in proc.stdout


def test_audit_refuses_oversize_merge_in_one_line(tmp_path):
    """Thirty distinct powers of two pass the item cap but not the cap on distinct totals."""
    prices = tmp_path / "prices.txt"
    prices.write_text("".join(f"{2**i}\n" for i in range(30)))
    proc = _run_cli("-m", "wot.cli", "audit", "--prices", str(prices), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: too many distinct subset sums for exhaustive audit: more than {2**18} totals"]


def test_privacy_test_command(capsys, monkeypatch):
    seed_source(monkeypatch, random.Random(99))
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
    """The manifest alone is read: a buyer's copy without ciphertexts dumps too."""
    out = tmp_path / "bundle"
    main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
          "--out", str(out), "--group", "p23"])
    capsys.readouterr()
    for ct in out.glob("*.ct"):
        ct.unlink()
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


@pytest.mark.parametrize("argv, message", [
    (["--weights", "1,2", "--choice-a", "0", "--choice-b", "2"],
     "choice index 2 out of range"),
    (["--weights", "1,1", "--choice-a", "0", "--choice-b", "1", "--sessions", "0"],
     "need at least one session, got 0"),
    (["--weights", "1,1", "--choice-a", "", "--choice-b", "1"], "empty choice set"),
    (["--weights", "1,x", "--choice-a", "0", "--choice-b", "1"],
     "--weights: 'x' is not an integer"),
    (["--weights", "1,1", "--choice-a", "0", "--choice-b", "1.0"],
     "--choice-b: '1.0' is not an integer"),
], ids=["index-past-weights", "zero-sessions", "empty-choice", "weight-not-int",
        "choice-not-int"])
def test_privacy_test_bad_input_is_one_line(argv, message, capsys):
    assert main(["privacy-test", "--group", "p23", *argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command", ["audit", "reduce"])
def test_bad_prices_file_is_one_line(command, tmp_path, capsys):
    prices = tmp_path / "prices.txt"
    prices.write_text("# header\n3\nfour\n")
    assert main([command, "--prices", str(prices)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {prices}:3: 'four' is not an integer"]

    missing = tmp_path / "missing.txt"
    assert main([command, "--prices", str(missing)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read prices file {missing}: No such file or directory"]

    prices.write_bytes(b"1\n2\xff\n")
    assert main([command, "--prices", str(prices)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read prices file {prices}: not UTF-8 text (byte 3)"]
