"""Golden outputs: the SHA-256 of stdout for a small matrix of CLI commands.

The digests were recorded from the code before the split search stopped
repeating block sizes, and the three-operator sweeps, comparisons and ex6
reports before the geometric mean computed all flavors in one pass; any
change to a printed byte of these commands fails here. The matrix covers
ex1 at n = 7, 8 and 9 for every block size m = 1 .. n-1 in both formats (so
m below, at and above n/2, and both odd and even n), ex5 and ex6 with each
geometric-mean flavor, ex5 and ex6 sweeps and comparisons in both formats,
and one ex3 sweep. The `check` runs and the `bounds --input` reports on a
pure, a density and two Bloch problem files were recorded before operators
were checked once per command instead of once per row. The ex1 reports at
n = 12, 16 and 20, the ex2 report at n = 12 and the ex1 sweeps at n = 16
were recorded while the split search still enumerated every block. The
`check --seed 5 --trials 301` run, which reaches the per-suite trial caps
of 200 and 300, and the `check` run with a corrupted split bound were
recorded while each suite still ran its own trial loop and drew its own
instances. The `bounds --input` reports with flags that override the file's
params, or a --theta-min that a fixed state only echoes, were recorded
while a problem file still loaded into its own problem type. The dense ex2
reports at n = 16 (JSON) and n = 7 (CSV), which print every level of the
interpolation family with every pair term nonzero, were recorded while each
level still re-formed all of its pair terms. The ex5 and ex6 commands at
m = 1 and m = 3 (block sizes below and above n/2 = 2) were recorded while
the geometric mean still recomputed the first pair's factors. The
`check` runs at one trial, at six trials (fewer than the seven dimensions
2..8, so some dimensions draw nothing) and at 200 trials (the subset
oracle's cap) were recorded while each trial still turned its own Gaussian
matrices into unitaries one QR at a time. The `bounds --input gap3.json`
reports (a mixed state purified to n = 9 whose support {1, 2, 7, 9} has
gaps inside it, so the interpolation family repeats some levels and not
others) were recorded while the family and the paired cross bound still
formed every pair term, zero or not. The ex4 commands (the built-in mixed
state), the `rank1.json` and `debris.json` reports (eigenvalues at rounding
level and at -5e-11, which the square root clamps to zero) and the stderr
of every refusal in tools/corpus.txt were recorded while a density matrix
was still checked and diagonalised again on its way to purification.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from uur import bounds, cli

# (dimension, m, format) -> digest of `uur bounds --example ex1 --dim n --m m --format f`
EX1_BOUNDS = {
    (7, 1, "json"): "df45455735f0600c31ec181222461162ab76aa6ec868a9bfb8746f60387db5c7",
    (7, 1, "csv"): "f7488331db7dc6e771b4a784e7b7a7b2e33eb3a0e3e877cfe795bcb76c47111f",
    (7, 2, "json"): "35462f7693e3342bdcc764b2b4c52610b62a78da5b3b621be4ebd64de115aeb1",
    (7, 2, "csv"): "4f9839c341a98f344473484c49b1763e3036bb5432a675859823d70412988493",
    (7, 3, "json"): "88f1d8ec0fbcccdb16be55db4c541b445c0843c0ca72da4ec15dbb8cfbd32f3c",
    (7, 3, "csv"): "8d9da84fd388cd76e0adca8593c2badb2329ad637514f9a01fc28ea52a87dd1a",
    (7, 4, "json"): "01a71e80c574d0c33973edef269a9345203ca545a1d9a825217bd1006d32a04b",
    (7, 4, "csv"): "a6635b254a5ad6f9180621972b66179ad2b67cab7b3f1947202c0134d3b1c2c9",
    (7, 5, "json"): "3e170699ca3c2c3d1fcbf59aaa57e9c70641d49c3757044861ce122b142b305b",
    (7, 5, "csv"): "25fb23f6de26eb8f0595b5a55f33000dfa64b6c3241437f9a63b7fff5690b36e",
    (7, 6, "json"): "b39b66ebe7909a3fb791181df89b2bed4d76e1af7f22b314838ac5f4226e4b6f",
    (7, 6, "csv"): "1292e719a963e9a56db22fc7c57117f2ba809842e2ab761ccc0bc7c8bb1edb92",
    (8, 1, "json"): "1fbd0ccf1b04cf4bf6762506890f21c0d88e7175de52e720d0f2010360ab608f",
    (8, 1, "csv"): "e9d2f820944c8c34ad3f236ebbc81f02fe071187f54895d346500cb88635fed2",
    (8, 2, "json"): "29a3c561e32d46e43484ed41129b1ded0880dabfd4355c4ad65bf3d4dbd7f7f2",
    (8, 2, "csv"): "16acd3e436afdf0725f0a7846a02abb0d0adf4b737b90f9f7761f51de433d038",
    (8, 3, "json"): "b6a71103092c0605b85a7278ac69a25c7523b967eda92e3f419686fcff95b377",
    (8, 3, "csv"): "1c6c8a68ac7775997bddeb6717a88c5b01bfdfb535fef2af4d7c6ef25dc33e94",
    (8, 4, "json"): "be11bd7cff937365f2c3a63243f5cd38718f904c15491082ef878309cc13e1d8",
    (8, 4, "csv"): "a02e2c18167b2ef5bfada2f7f3330cbf096eecac9eb42ef794ada173f1ad7331",
    (8, 5, "json"): "33d276b70eee4bfa2c554148ef3f159043ec5bcb65b64d72f4c636059dca9e5a",
    (8, 5, "csv"): "06661a3f2b777c6881f523632f04a44218ac7b7fac8d56d2361e84fe4595d08f",
    (8, 6, "json"): "a12b4082adac7542e00f282fc1de96ac8335a24d10e09791d0d32df3770af69d",
    (8, 6, "csv"): "9639275c73fece6d9fdc9d8b24fd36a992f17f3fd0cb5be441ea6ef7667f9512",
    (8, 7, "json"): "85f47f0647785bef68a75d4ca7ac162ed74672abb5d34af57e388eb506b24463",
    (8, 7, "csv"): "14a93c9c081c750df21b8b63825d4563d518fd1e37f24d8705d83955f3bca202",
    (9, 1, "json"): "727b06ec7ed72c5712ccc7d47dea04bdebf5f6a1cb7077fa2f546093242610f9",
    (9, 1, "csv"): "3db7de1746ecc172bedd738bd56cf00c088b228237547e3a5daed88b5f898a36",
    (9, 2, "json"): "c93830b5ef15735acc0d3a99612ca10637a0a0f131f007b656cb98461f5b36f5",
    (9, 2, "csv"): "5564c83baf2fef3e0b362d09e769bdf8fa63da31ae321b84f5fcc62067ff838e",
    (9, 3, "json"): "e5aaf863dba22b990bc86cf9fef18505de2d098d80d21976842200fad2cb8fd7",
    (9, 3, "csv"): "1f557a5432260d3c074ff4e05c5f58c7b1e93085b83799b5478eab078d66221b",
    (9, 4, "json"): "720381c950b0c7518717a02ab01c4c7c2b7e68e1c924ca5466730f8f288b7df9",
    (9, 4, "csv"): "702a124da827fdb1941228d010fa48ab45e03c76cbe460d0e80331229b04f739",
    (9, 5, "json"): "89aa743ae6fbc804f39e34f6de0fa7d28807c89b156abcaaf955c626c52093db",
    (9, 5, "csv"): "8af5c520fdf975c897184a40bd24336066ee39860d4d026a5c7a04f741902ce5",
    (9, 6, "json"): "972dad3566973f60c945e94749c748624241ca3a637f9aa299c90172a1d21c7d",
    (9, 6, "csv"): "cd54b215e26b74bcc69644c7257aba2ed4314fb1fcfa32c563d0979a41c10b05",
    (9, 7, "json"): "6315c223648f3903165f9683e87bc96ad814d9ec547d443940b7b66224966c0b",
    (9, 7, "csv"): "4de5807439be6ec3593c7344b8c5ba3771da3669e26ac8753aff44844a935796",
    (9, 8, "json"): "77c0642210ca889875ce43c50562f1afdabd7cf1ef8dab75eff9a2c4d035b804",
    (9, 8, "csv"): "a4486d6f568c48e1a83c1e47f26d57686f705c25db67429580233f26e0f0fe9c",
}

OTHER_COMMANDS = {
    "bounds --example ex5 --flavor plain": "8409f03dbad5860785c1158362812647a85450422fda40c53e2b3079f892d4e1",
    "bounds --example ex5 --flavor convex": "45aea3aa8dbcb392b98673f46ff068852cd3bc71d10d01e8f57a82086bfd7fdc",
    "bounds --example ex5 --flavor tilde": "0d55b1ed68f6197d5067f5eabe25f3cf4f6949d56d9ac2e1105ab14be4e2ea81",
    "sweep --example ex3 --steps 5": "fd3762d8883c659780fe22d359fa16758559c9dbfe0472e22a1eab3f7a15528c",
    "sweep --example ex5 --steps 5 --format csv": "3558ee848165c7368cf486f93e6a54f34e57e20e88119f9aacbe9cce96db1c89",
    "sweep --example ex5 --steps 5 --format json": "43bc9b05a80e6e38202f9f2266238031c61aeab545057de446306ed9954bb7f4",
    "sweep --example ex6 --steps 5 --format csv": "e6b09ec32f18919dc814fcf9866b1ccc9c905c186b50e950eb82d76754dc8331",
    "sweep --example ex6 --steps 5 --format json": "c2bc3e8dc47b7799a7e1d2264b1936ca0a7af8ed01f30f918f465f3e3d8e1ea2",
    "compare --example ex5 --steps 5 --format csv": "7b3b4ea647279f27ae220c956240fb119f59a6c0308d70b85996ff75d9b68882",
    "compare --example ex5 --steps 5 --format json": "239c057051e7e8269cfdb80fca81fff6372823f9fef9037a01f8c1c84911f945",
    "compare --example ex6 --steps 5 --format csv": "d2732114a4d0e39039c82f026fbf25a593b4708198764b2bf0f9f13d676aa114",
    "compare --example ex6 --steps 5 --format json": "e28b64d62e03175a79597d96456c465dcf4e548ac12e9a4baf44fd4b960eacb6",
    "bounds --example ex6 --flavor plain": "9ec4782cbb5b5865cc650e18024d3362508edf0e089fcfa9c51c8799075d63da",
    "bounds --example ex6 --flavor convex": "b4cd68442ac7e5f52eabe9ae49240c987089a63ae2e8d38ef583a97210d06274",
    "bounds --example ex6 --flavor tilde": "1ba2f8292373b7242fe144fb436f0511df024a7202045699bc8ae8d5dc7caa61",
    "check --seed 42 --trials 25": "b756ffda990d39fcdf5da7ec87297af7975fb8dcfc7838db0fc6f875174484b7",
    "check --seed 3 --trials 60": "1a028d1b69d64d62efcedd73ad3d1fe61d99d33e8597b000e1db957a3577bc12",
    "check --seed 5 --trials 301": "30ad49d69712e75329175c5fe4e534903367a7f1ddea2bbd0941f153a9618b83",
    "check --seed 11 --trials 1": "30ce7196b971127bf3d176620a5fdf98bb567d7277eb245e024ef2f3e9e7a8b3",
    "check --seed 8 --trials 6": "22255aca873d6ac7bb3118b97077d633cdef876147d1d40d86bdfcd2a92b9176",
    "check --seed 13 --trials 200": "ece5f1e291ecb3a32aee434aa56dcdee005dda6563d9168a08a238c3f151053b",
    "bounds --example ex1 --dim 12": "32490b5014b6a365946588551aadfd2405b4cd7f57351e2a685cca71cedca80d",
    "bounds --example ex1 --dim 12 --m 3": "d6fbeb2d691323548628ead6710fa6701cf3ac3e335d439a93a7641a9b8133ae",
    "bounds --example ex1 --dim 16": "a3b051c0315fbb7e58f5f583a6a10ee0a0dc0d2a5c9c1126c45ae270131c99c7",
    "bounds --example ex1 --dim 20": "fa1e68d91996723f0bdbfb8685b33be31c776b1a2c8c9a171bacde7f5ec9a6d2",
    "bounds --example ex2 --dim 12": "8d21f8bd1b5c9da984808c3a8765ba372a3c358a9c50214de08aaf5a5c5a5583",
    "sweep --example ex1 --dim 16 --steps 3 --format csv": "097f153d317f4499acec1184db322739f99d317978ebf373ba923bd822f26e1e",
    "sweep --example ex1 --dim 16 --steps 3 --format json": "ffeb6fc7c0f71db0b2ccdc260ddcfe0d7f25f435a8c3b830f46c8b3cb259e9de",
    "bounds --example ex2 --dim 16 --format json": "c99dfa668b036bdac3dc52498d2e5e59c9816479029fcb0a2ca415646e021b4c",
    "bounds --example ex2 --dim 7 --format csv": "ef5fc5035fbc4e0547a5dc22b758e355d310357344f75fc06bbbdf5eeb03dc1e",
    "bounds --example ex5 --m 1 --flavor tilde --format json": "3d5439a40a4bf32c291fc525589f7bd0560a6ba9c9b510c9e3031c527b2ac27b",
    "bounds --example ex5 --m 3 --flavor convex --format json": "7f4af1ee3c3624d77e7657ca6c063f317c47f7f6f40254d41f1de013dd1b037e",
    "sweep --example ex6 --m 1 --steps 5 --format csv": "3c3a60e790185d9df17e44733db3810ec129abd475ecf8707e6d48152800247d",
    "compare --example ex5 --m 3 --steps 5 --format csv": "e6c1281d1c67201e918bcaee1b258124bd3994ac1a1b23d38db3084eef7d84c6",
    "sweep --example ex4 --steps 5 --format csv": "546617ca947c2e806e0966609d084e5fd10356ce678472dec5552cc7a1fefd83",
    "sweep --example ex4 --steps 5 --format json": "c614bb01c05572eeb402e3a87a8c6621aa34ef37b463a5d1df0bfa418ce14a6b",
    "compare --example ex4 --steps 5": "9d6b9daa446c66ce05d8e8a56e58ff7dceb080c934f223be92228f6d6b25318f",
    "bounds --example ex4 --format json": "5c19dde0f485b44cc35ef933538acc371a47167a94f432608417ffdb5f6071de",
}

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# Problem files for `bounds --input` (file name -> JSON document), shared with
# tools/compare_outputs.py and written under these relative names because
# the report's "source" field prints the path as given.
INPUT_FILES = json.loads((TOOLS / "input_files.json").read_text(encoding="utf-8"))

INPUT_COMMANDS = {
    "bounds --input pure.json --format json": "044888d968fcae8c24f0c995830c929e1af3aa01a57dfdbed73c53e774980624",
    "bounds --input pure.json --format csv": "cca6925d892d0ff589a22c50677e0fe51b14f42a50dcf2066f4fd18f98aaa72d",
    "bounds --input density.json --format json": "a78065037b62f27a2a817a0dab9e664d23765968ff5fbabcb5eafce5b27c3a76",
    "bounds --input density.json --format csv": "54759a0ca93a71407810c187a1e11d013fda99f2235b6e81e91d46d8b05ffd30",
    "bounds --input bloch.json --format json": "95502b456617579b49caaec6a13439253b5354f9e4bf0aa66cbd5722afe432a3",
    "bounds --input bloch.json --format csv": "fdd9d23777848350b5e4c83dd67f6a1471d5949a74a8b3380b38c3937e7477db",
    "bounds --input bloch3.json --format json": "fba68d277afcad9c209904bf3c500d940736bd43dd28a1dbbd18fa1d25cb4505",
    "bounds --input bloch3.json --format csv": "69ac9d06478ea1a39a51f4e698df8ac1c2698c24121377113d54c6acb8aa9d5c",
    "bounds --input pure.json --m 2 --v 0.7 --format json": "6d6c948424d534d52aea87403b7e7d0aa8e1c29d026f4c9e34b7de1bf8276651",
    "bounds --input bloch3.json --flavor convex --cap 100 --format json": "5c285ed3d6350aa027af96963331024976de280af3a9447ba5117656ea48d4a1",
    "bounds --input pure.json --theta-min 0.5 --format json": "d8612cf28c81d7a7415ffa2497f738cb37320f26a35669643345a3f1606079fa",
    "bounds --input gap3.json --format json": "7b1358c355622f4879ce7ba82cb469408fa454f956bf7cd77970fc7aec81cd6a",
    "bounds --input gap3.json --format csv": "7495c55e51ca364a3120b1cbed4c2077a7571e8aefb85c798201fd1a8b59be31",
    "bounds --input rank1.json --format json": "278c6a17940d65c956235b7e83515fe9fead0b49c482af0df3248bdc9e0698ce",
    "bounds --input debris.json --format json": "643149cd3c79a206a7b609bc359d5676c66723dbe4e8c041542af89166109568",
}

# argv -> (exit code, SHA-256 of stderr at COLUMNS=80) of every corpus command
# that exits non-zero: usage errors, theta grids that overflow, scenario
# refusals, subset-cap refusals and refused density matrices.
REFUSALS = {
    "bounds --example ex1 --steps 3": (2, "ca128186d89e1fdecf50efcb58a630795457eec9e02c999b8e97923de883744d"),
    "sweep --input x": (2, "e4f9db36f0933ea63b9cdd570c45f9f4cb30077c7b9e0952ed72a937e28ec01a"),
    "compare --example ex9": (2, "dbd71edd6128a23d2b3a6e87769bb48346ea67fa0d5d829d06e04a12b114fcd7"),
    "check --cap 1": (2, "d4495f82daa2037fbe72af424e2856346930b8b01c62b6807fa11c58e75f4822"),
    "sweep --example ex1 --theta-min abc": (2, "8eb5e8648834357b8ae7f25195a409800098408fb1553c78f9a317c2806b13d4"),
    "bounds --example ex1 --input pure.json": (2, "c3cb3f1743d016e85d2724d3a343403892fada27fdb1f7a8f394bf1f2ed4e590"),
    "sweep --example ex4 --theta-max 1e308 --steps 3": (2, "222996f452931c17bec664bf963eee86ce33f929014b1066650ec4029e22b044"),
    "compare --example ex5 --theta-max 1.7e308 --steps 5": (2, "1dfbf9313a07e366bf66e263cdfea7d89393178ca45a27778764892e130e1ee0"),
    "sweep --example ex1 --theta-min=-1e308 --theta-max 1e308 --steps 2": (2, "c0e325a975b6568ac8752a03a1723fd667fa48153ff395de4774e8cafd985c94"),
    "bounds --example ex1 --dim 1": (2, "4f06c70f14154336e8840d9d8c48bb09690c9532d625b70c69ab24a20407b3cb"),
    "bounds --example ex2 --dim 1": (2, "ec6cf968158e358712603fd17a70cb8826d7c0d543880f96390d49f4f138bdbd"),
    "bounds --example ex2 --dim 2": (2, "149c5a6de2419f4264910ac60cd347984cda650a75141ed9d18c36dbdb5f5505"),
    "bounds --example ex3 --dim 4": (2, "34116082812afaccdc39fa103d572ea57894257208af912b4833fe62db1e5f3f"),
    "bounds --example ex4 --dim 3": (2, "250d685e45cbea2eb11812419375f296da04dff0bda2d9b6c4d770889ef6b851"),
    "bounds --example ex5 --dim 3": (2, "868a370a3c3e393ee28519f5d0dc02bab03fa9ac735144034ea263777631fa26"),
    "bounds --example ex6 --dim 4": (2, "e441a8ace5acacdf983b314bea01bc344530125de88dc67925d94bf08bd2966c"),
    "bounds --example ex1 --dim 30 --m 15": (3, "20462f482977fc34afe797fe99478bed6fb11c6920d18cd12482f219a4bb783f"),
    "bounds --example ex2 --dim 12 --m 2 --cap 500": (3, "4d449d8ed9dbc27ec241486dee0e4dd946b547085a3b4803e95a343620d17b1d"),
    "bounds --input negative.json": (2, "139c2bfc62a583eb2f78a5a9fb86d4bf2fd9c8f5e44c93eac221622082694f84"),
    "bounds --input nonherm.json": (2, "4a6053f656841437a278dd6252b7270b83a9ea58737d55b2faf1d7b5029a0c1a"),
}


def golden_commands() -> dict[str, str]:
    """Every golden argv of this file, as one line, with its stdout digest."""
    ex1 = {f"bounds --example ex1 --dim {n} --m {m} --format {fmt}": digest
           for (n, m, fmt), digest in EX1_BOUNDS.items()}
    return {**ex1, **OTHER_COMMANDS, **INPUT_COMMANDS}


def write_input_files(directory: Path) -> None:
    for name, document in INPUT_FILES.items():
        (directory / name).write_text(json.dumps(document))


def stdout_digest(args, capsys) -> str:
    assert cli.main(args) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_matrix_covers_every_block_size():
    for n in (7, 8, 9):
        for fmt in ("json", "csv"):
            assert [m for (d, m, f) in EX1_BOUNDS if d == n and f == fmt] == list(range(1, n))


@pytest.mark.parametrize("n, m, fmt", sorted(EX1_BOUNDS))
def test_ex1_bounds_stdout_is_unchanged(capsys, n, m, fmt):
    args = ["bounds", "--example", "ex1", "--dim", str(n), "--m", str(m), "--format", fmt]
    assert stdout_digest(args, capsys) == EX1_BOUNDS[n, m, fmt]


@pytest.mark.parametrize("command", sorted(OTHER_COMMANDS))
def test_other_stdout_is_unchanged(capsys, command):
    assert stdout_digest(command.split(), capsys) == OTHER_COMMANDS[command]


@pytest.mark.parametrize("command", sorted(INPUT_COMMANDS))
def test_input_file_stdout_is_unchanged(capsys, monkeypatch, tmp_path, command):
    write_input_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert stdout_digest(command.split(), capsys) == INPUT_COMMANDS[command]


@pytest.mark.parametrize("command", sorted(REFUSALS))
def test_refusal_stderr_is_unchanged(capsys, monkeypatch, tmp_path, command):
    write_input_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    try:
        code = cli.main(command.split())
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out = capsys.readouterr()
    assert out.out == ""
    assert (code, hashlib.sha256(out.err.encode()).hexdigest()) == REFUSALS[command]


def test_corpus_runs_every_golden_command():
    lines = (TOOLS / "corpus.txt").read_text(encoding="utf-8").splitlines()
    assert {*golden_commands(), *REFUSALS} <= {line.strip() for line in lines}


def test_check_with_corrupted_split_bound_fails_unchanged(capsys, monkeypatch):
    # Adding 2e-6 to every split bound breaks the chains of five suites; the
    # digest pins the FAIL line and each counterexample line.
    real = bounds.split_bound
    monkeypatch.setattr(bounds, "split_bound",
                        lambda pair, subset: real(pair, subset) + 2e-6)
    assert cli.main("check --seed 3 --trials 10".split()) == 1
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "a8cbb9235cb5b71a60d485c831ddf30d76164eaac6f595a8babc215a126eba6f"
