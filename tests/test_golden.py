"""Golden output: the sha256 of (exit code, stdout, stderr) of every
command in every output format, pinned.  A change that alters any byte
a command writes must update the digest here and say why."""

import hashlib

import pytest

from cohenram import cli

COMMANDS = {
    "sum": ("sum", "--r", "12", "--s", "2", "--n", "36"),
    "jordan": ("jordan", "--k", "3", "--n", "360"),
    "jordan-invalid": ("jordan", "--k", "2", "--n", "0"),
    "gcd-s": ("gcd-s", "--m", "72", "--n", "48", "--s", "2"),
    "expansion": ("expansion", "--s", "2", "--k", "1", "--n", "6", "--Q", "20000"),
    "local-check": ("local-check", "--s", "2", "--k", "1", "--n", "6", "--primes", "2,3,5"),
    "sivaramakrishnan": ("sivaramakrishnan", "--s", "1", "--k", "1", "--n", "6", "--R", "200"),
    "asymptotic": ("asymptotic", "--s", "2", "--a", "3", "--b", "3", "--h", "12",
                   "--N", "20000", "--prime-cutoff", "1000"),
    "asymptotic-far": ("asymptotic", "--s", "2", "--a", "3", "--b", "4", "--h", "1014185",
                       "--N", "2000"),
    "main-term": ("main-term", "--s", "2", "--a", "3", "--b", "3", "--h", "12", "--R", "2000"),
    "repro-all": ("repro-all", "--N", "20000", "--prime-cutoff", "1000"),
}

DIGESTS = {
    "sum-plain":
        "e9e44edfe49a6fa62d620bad3b5f47de6a51230bf016cbf64dd43395b10b9c75",
    "sum-json":
        "84012aaf1c9f745a90e54577360b6e89da24e7b5dfa287ca903bfc5241865684",
    "sum-csv":
        "12c66f5a979e580a4d2e2305b5d587841d0f8c509d27e6f1e0f6bbbad8595380",
    "jordan-plain":
        "9e25941fd3aae7336c42413037a3cd1024d1b3b3e8ee80573bbec7b21d13221f",
    "jordan-json":
        "0f13f4c5bdbfbee55efc19e5190ba42107b58aefccf7b8fa3a8eed6950b2a60d",
    "jordan-csv":
        "f311dc82fd3f5ce42e448ed5442a06e5629a65ebb4caa7d86269f2bcaa106e32",
    "jordan-invalid-plain":
        "a163579c3f6caffe9f2b4f90163f5c526a4038bfa270d3249b99e3d20cdfa86b",
    "jordan-invalid-json":
        "a163579c3f6caffe9f2b4f90163f5c526a4038bfa270d3249b99e3d20cdfa86b",
    "jordan-invalid-csv":
        "a163579c3f6caffe9f2b4f90163f5c526a4038bfa270d3249b99e3d20cdfa86b",
    "gcd-s-plain":
        "606fc6a189d022af71df05a9d26adb31141c01946a10d6ea1b502c34c2a10b4d",
    "gcd-s-json":
        "081367d8b71035941c98b9707c85bde6b5ddb58420d89f57e30776e7ab150bc1",
    "gcd-s-csv":
        "00ab36c807fcb5c13b0a6b419919d74c79705e85040269b9a092af7002b7d7ca",
    "expansion-plain":
        "35447a6b771a61900feaf601442a91dae19174b365fe7ebf704eae1acc778793",
    "expansion-json":
        "bef316dc95603c4325495fa76b07834fcfaf02a5dd88f14b09b024345b0dbe4a",
    "expansion-csv":
        "e06b0b41c1ac71ed34c3d1113d7d531ebd6515d252ec916d0d20e0dcfeb0998e",
    "local-check-plain":
        "8721aa0521e0d71800e6aa487ed61a78ef15e0443479bbfb8669fcb50845209b",
    "local-check-json":
        "61d543c6024d48481bc998f9e23dbaac231be31fece67ca86f7a83d1a78bf1d3",
    "local-check-csv":
        "630b7c2516129b368ab37186f349acaa0db9f887491d6bb1128d3ee38817a27d",
    "sivaramakrishnan-plain":
        "6a0b49b5529b0795a8cb0621e7b92000649a52141c1cc6578d973d67409d549f",
    "sivaramakrishnan-json":
        "fe5c3d15e286368d7b932636785b5630d1d0a38ac157d01d1ac4a7c71c145cd9",
    "sivaramakrishnan-csv":
        "30729c0b44814c8b71985e8fb6c9b531a15815b416ab1798d02677c59edaf36d",
    "asymptotic-plain":
        "dacb8df5a1ac34c3831145c315747faa366e14a4d531394c0de3357f56f2c074",
    "asymptotic-json":
        "57052781eb8507f238283b46230918523ca019606cc02ce72ec87b84dcf90012",
    "asymptotic-csv":
        "6d392d04231894f62ba28da598a98442371a4118baf05a5efbbc166b1d95148d",
    "asymptotic-far-plain":
        "f5423795fa81c840eaa35208a26f2946fcd38ca6850a97ab5afb833107198697",
    "asymptotic-far-json":
        "466deafb4f5f1f435cd306c2c9719ef042bc07b4ab653d2c7280aad2034503c6",
    "asymptotic-far-csv":
        "caacbff83bc7f5b442f345eeff64650833a4cf1b189bd8a3c5028097bed1135b",
    "main-term-plain":
        "7aeb619269ecb26c0919eacf27c59946731fa185ab03c1d6f66c950a8624766e",
    "main-term-json":
        "1228ba964b3bba4e4d1f146b07f48af5c2d3746963528e52dff4c75f0237862b",
    "main-term-csv":
        "f9743bc25583da250c394c0e3d3e5e83dae7bb0a18f34fe135ab8153a8095669",
    "repro-all-plain":
        "14f18cb18716b9ed458eaf9e2867fd4aa68ee94d2139a4357538b11d46f25a59",
    "repro-all-json":
        "215e804e3e4b5f72da96186f89656ac69583d4af763e796dd7e3b3a9788e1d8d",
    "repro-all-csv":
        "87a0cd58ca74428e4a1ce3bf03a501f78e244ab24c95ca6228fd5e8af1096130",
}


def _digest(code: int, out: str, err: str) -> str:
    blob = f"{code}\n{len(out)}\n{out}{len(err)}\n{err}"
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("output", ["plain", "json", "csv"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_is_pinned(capsys, monkeypatch, name, output):
    # the reduced grid test_repro_all_small uses; the full one runs in
    # the acceptance suite
    monkeypatch.setattr(cli, "_REPRO_PRIMES", (2, 3))
    code = cli.main([*COMMANDS[name], "--output", output])
    got = capsys.readouterr()
    assert _digest(code, got.out, got.err) == DIGESTS[f"{name}-{output}"]
