"""Pinned bytes and messages of every family, recorded before the family table.

The per-family facts live in one table (``nilorb.families``).  These pins
hold the program's output fixed while that table is the only place a
family is described: the SHA-256 of each ``list``, ``describe`` and
``verify`` JSON document for one small algebra of each family, the text of
every rule :func:`~nilorb.catalog.datum_membership_error` can name, and
``describe``'s stderr for one rejected datum per family.  The digests were
recorded with ``python -m nilorb <command>`` before the table existed.
"""

from __future__ import annotations

import hashlib

import pytest

from nilorb.catalog import AlgebraSpec, datum_membership_error
from nilorb.cli import main
from nilorb.diagrams import SignedDiagram
from nilorb.partitions import Partition

#: (command, SHA-256 of its stdout).  Every orbit of each algebra is
#: described, so each family's zero orbit is among them.
OUTPUT_DIGESTS = [
    ('list --algebra sl_r --n 3 --format json',
     'dcff8b72ac3471706e9d9d98c350bc0a019853ca837f2c01baeaa2766a628d28'),
    ('describe --algebra sl_r --n 3 --datum 1,1,1 --format json',
     '15bb24e004f22a404e3b90b7953e98dee27460e83333d052524b1e69316e3731'),
    ('describe --algebra sl_r --n 3 --datum 2,1 --format json',
     '26bb01112a004a75f85938200b52e88eecce8433e5f24f76e9995663fa9d7718'),
    ('describe --algebra sl_r --n 3 --datum 3 --format json',
     'fef297e43678f254bb174b01d7105d54abb8413aa1d4b2199cfde996bc54c860'),
    ('verify --algebra sl_r --n 3 --format json --seed 0',
     '15e6eacdd2e3f4339bb97d354880274630284bba8e4d91b1844cb8a6a877988f'),
    ('list --algebra sl_c --n 3 --format json',
     '8d9c6e83293995df2461a0be2f5c614d77c9522c1d28754f4cfbd93bda9774b2'),
    ('describe --algebra sl_c --n 3 --datum 1,1,1 --format json',
     '48a2d104df1b3146a539e969c6855add95cace7b302ccff29c7acca271e4747a'),
    ('describe --algebra sl_c --n 3 --datum 2,1 --format json',
     '31dd337626d47ec3a025a7c574fc637000886d186953fbe99844bdce710eb4fe'),
    ('describe --algebra sl_c --n 3 --datum 3 --format json',
     'd08a61ba6e9db2ba5f10e9d2de604a9288ed56aebdc155237230e08dc63d0c06'),
    ('verify --algebra sl_c --n 3 --format json --seed 0',
     'd42eae04066f1e1eda786d85f3bd593bcb993d41f6cf35ac3a96967101f00354'),
    ('list --algebra sl_h --n 2 --format json',
     'bcb9cc7da4e4be4403d4c89de9951dd8e629b2dde009cbfd43ba265fbf53d35a'),
    ('describe --algebra sl_h --n 2 --datum 1,1 --format json',
     '93843992c4884fb5d6e97c3c0ef01e45ad743519dea1630cd073a2495ede4b89'),
    ('describe --algebra sl_h --n 2 --datum 2 --format json',
     '5b67ad2a66bb071df099cf6b0d87abb56d01225f30db3e5af878bc6be640cad1'),
    ('verify --algebra sl_h --n 2 --format json --seed 0',
     'e2dfe61fdc83962cc113d1db97a5d030da0a8e6b3acec5ef7515999afedce4c6'),
    ('list --algebra so_c --n 5 --format json',
     'e22a8811728f46b7abadb36758f2b57b4a6d88fd0f97256c496736367ba95a9e'),
    ('describe --algebra so_c --n 5 --datum 1,1,1,1,1 --format json',
     'b12001cc0c01c11590c9a7941b0cb8f062eb2af359958759dd0860c9e7dadf28'),
    ('describe --algebra so_c --n 5 --datum 2,2,1 --format json',
     '5f34b37b7ac27c41998d3551c937a9eac03598d06b62e0c78e71ad975bfc8035'),
    ('describe --algebra so_c --n 5 --datum 3,1,1 --format json',
     '2ba93567eadf849bb8a1725da4adfd51e134b39c7acaf5194a5af1d525dd038b'),
    ('describe --algebra so_c --n 5 --datum 5 --format json',
     'cbac08005d4136f82872cc06c1687c01a20663325f5d69a277c88a8cacc48126'),
    ('verify --algebra so_c --n 5 --format json --seed 0',
     '1c7cd17c6700f952737bcd30d594bbc4f3a4656f64fb72b276d4c7d45751a841'),
    ('list --algebra so_pq --p 2 --q 2 --format json',
     '46b6de6e0fb5c6ca5f9b325d648ea00b91bea3859c3e0fdb6a8efacc478e155f'),
    ('describe --algebra so_pq --p 2 --q 2 --datum 1,1,1,1 --signs 1:2 --format json',
     '02a5365a7c1dadffae26f64a80a40ca3ebd3ba7c39989b02d7c1db879c3b3ba7'),
    ('describe --algebra so_pq --p 2 --q 2 --datum 2,2 --signs 2:2 --format json',
     'db0fa174c352e80cc7260909f29e8cc3112b70b0fcc3fd0dd010dae645568da5'),
    ('describe --algebra so_pq --p 2 --q 2 --datum 3,1 --signs 3:0,1:0 --format json',
     'bdec3014e941b987b4d6c2929a57d0f0328004e7d074163ee5ba672fcc0cd8a4'),
    ('describe --algebra so_pq --p 2 --q 2 --datum 3,1 --signs 3:1,1:1 --format json',
     '433323812f98cf4c4999347e633029a679597b5b600aaa2432d6c16c3c389269'),
    ('verify --algebra so_pq --p 2 --q 2 --format json --seed 0',
     '4a369a183021561c9ca165b1e5c3c5e8d6cc64494dc85d0733860cf77ae32f34'),
    ('list --algebra sp_c --n 2 --format json',
     '2cd1586d38a03face479a137efdb71618daec3b2d2e7ebec05bf9aecac1d4f21'),
    ('describe --algebra sp_c --n 2 --datum 1,1,1,1 --format json',
     'a7545f55e84cef094d14e0b24c25761f6fab8ba5b2bd16e51704a02894536abc'),
    ('describe --algebra sp_c --n 2 --datum 2,1,1 --format json',
     '42f8580e50dadfc6e00217aade9effe66d18fab741c160dc50bdf27ba842863e'),
    ('describe --algebra sp_c --n 2 --datum 2,2 --format json',
     'a5e6e379d9958b601ff9503d0d87e6319b50df07961122a881c629605b480fbd'),
    ('describe --algebra sp_c --n 2 --datum 4 --format json',
     'f4443c03dcfbfd3813865cce5c25f5ddbf02cce494e44940de03f7629ac8ed75'),
    ('verify --algebra sp_c --n 2 --format json --seed 0',
     'cb5ad79e151e76bf688825fc0493671f8d2c500562d819d9fafb542bca373edf'),
    ('list --algebra sp_pq --p 2 --q 1 --format json',
     '588f241ef4d773861801458e6ca9e9488a6e0892307774232768ef6180bb84e8'),
    ('describe --algebra sp_pq --p 2 --q 1 --datum 1,1,1 --signs 1:2 --format json',
     '544c46e6d195ff4499e8f58041b4243f76c983a55a8ab17fd0686624d9639a3a'),
    ('describe --algebra sp_pq --p 2 --q 1 --datum 2,1 --signs 2:1,1:1 --format json',
     'b334b8f354df807332457b87cc8c38c476b127930a50f6eee63835e70d27ae75'),
    ('describe --algebra sp_pq --p 2 --q 1 --datum 3 --signs 3:0 --format json',
     'b26d4cfc80f11736716b2f3e3c800ae7fb35a8711104be6ae91b6ea61d79a6d7'),
    ('verify --algebra sp_pq --p 2 --q 1 --format json --seed 0',
     'e1456375c37ba9558183ccee12a042448847c740465209808134ec4883e5454c'),
    ('list --algebra so_star --n 3 --format json',
     '77d343941d659302ac26e4b6f88d45c49769694accb1a88189f38842054fe09c'),
    ('describe --algebra so_star --n 3 --datum 1,1,1 --signs 1:3 --format json',
     '8e7ec95d0819957e41ef4dd1f0d5276d287b3044d2c23ffc768aba77d6bbd9e3'),
    ('describe --algebra so_star --n 3 --datum 2,1 --signs 2:0,1:1 --format json',
     '20c682a6ce9cf9906d5a2b28a8a967ae3ef5db6b8bd8ba78785cdd9651da12db'),
    ('describe --algebra so_star --n 3 --datum 2,1 --signs 2:1,1:1 --format json',
     '616c48fcbe5cd5e137d4d6fd858b13ec8374c02c6bc3cc7854a10c8416b32616'),
    ('describe --algebra so_star --n 3 --datum 3 --signs 3:1 --format json',
     '4dc59081b0ab9d463139076ef212e7a485a339041ff38303d485ef31f947589c'),
    ('verify --algebra so_star --n 3 --format json --seed 0',
     '9667b9c801a6e623202d3cf5235b29576257ccd1511908d1130935ceaa8d7384'),
]


@pytest.mark.parametrize("command,digest", OUTPUT_DIGESTS, ids=lambda x: x[:60])
def test_output_bytes_are_pinned(capsys, command, digest):
    code = main(command.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def _plain(*parts):
    return Partition(list(parts))


def _signed(parts, signs):
    return SignedDiagram(Partition(list(parts)), signs)


_EVEN_PAIRS = ("even part {} has odd multiplicity; every even part needs even "
               "multiplicity in this family")
_ODD_PAIRS = ("odd part {} has odd multiplicity; every odd part needs even "
              "multiplicity in this family")
_PLAIN = "this family takes plain partitions, not signed diagrams"
_SIGNED = "this family takes signed diagrams (use d:p sign pairs)"

#: (family, size parameters, datum, the rule it breaks), every rule of every family.
MEMBERSHIP_ERRORS = [
    ("sl_r", {"n": 3}, _plain(2), "partition has 2 boxes, expected 3"),
    ("sl_r", {"n": 3}, _signed([2, 1], {2: 1, 1: 1}), _PLAIN),
    ("sl_c", {"n": 3}, _plain(4), "partition has 4 boxes, expected 3"),
    ("sl_c", {"n": 3}, _signed([3], {3: 1}), _PLAIN),
    ("sl_h", {"n": 2}, _plain(1), "partition has 1 boxes, expected 2"),
    ("sl_h", {"n": 2}, _signed([2], {2: 1}), _PLAIN),
    ("so_c", {"n": 5}, _plain(3, 1), "partition has 4 boxes, expected 5"),
    ("so_c", {"n": 5}, _signed([5], {5: 1}), _PLAIN),
    ("so_c", {"n": 5}, _plain(4, 1), _EVEN_PAIRS.format(4)),
    ("so_c", {"n": 6}, _plain(4, 2), _EVEN_PAIRS.format(4)),
    ("sp_c", {"n": 2}, _plain(3), "partition has 3 boxes, expected 4"),
    ("sp_c", {"n": 2}, _signed([4], {4: 1}), _PLAIN),
    ("sp_c", {"n": 2}, _plain(3, 1), _ODD_PAIRS.format(3)),
    ("sp_c", {"n": 3}, _plain(5, 1), _ODD_PAIRS.format(5)),
    ("so_pq", {"p": 2, "q": 2}, _plain(3, 1), _SIGNED),
    ("so_pq", {"p": 2, "q": 2}, _signed([3], {3: 1}), "partition has 3 boxes, expected 4"),
    ("so_pq", {"p": 2, "q": 2}, _signed([2, 1, 1], {2: 1, 1: 1}), _EVEN_PAIRS.format(2)),
    ("so_pq", {"p": 2, "q": 2}, _signed([2, 2], {2: 1}),
     "rows of even length 2 must all start with +1"),
    ("so_pq", {"p": 2, "q": 2}, _signed([3, 1], {3: 1, 1: 0}),
     "sign counts (1, 3) do not match the form signature (2,2)"),
    ("sp_pq", {"p": 2, "q": 1}, _plain(3), _SIGNED),
    ("sp_pq", {"p": 2, "q": 1}, _signed([2], {2: 1}), "partition has 2 boxes, expected 3"),
    ("sp_pq", {"p": 2, "q": 1}, _signed([2, 1], {2: 0, 1: 1}),
     "rows of even length 2 must all start with +1"),
    ("sp_pq", {"p": 2, "q": 1}, _signed([3], {3: 1}),
     "sign counts (1, 2) do not match the form signature (2,1)"),
    ("so_star", {"n": 3}, _plain(3), _SIGNED),
    ("so_star", {"n": 3}, _signed([2], {2: 1}), "partition has 2 boxes, expected 3"),
    ("so_star", {"n": 3}, _signed([3], {3: 0}), "rows of odd length 3 must all start with +1"),
    ("so_star", {"n": 3}, _signed([2, 1], {2: 1, 1: 0}),
     "rows of odd length 1 must all start with +1"),
]


@pytest.mark.parametrize("family,params,datum,message", MEMBERSHIP_ERRORS,
                         ids=lambda x: repr(x) if isinstance(x, (Partition, SignedDiagram))
                         else None)
def test_membership_rule_text_is_pinned(family, params, datum, message):
    assert datum_membership_error(AlgebraSpec(family, **params), datum) == message


#: (describe command, its stderr): one rejected datum per family, plus the
#: two sign-data rules of the argument parser.
DESCRIBE_REJECTIONS = [
    ("describe --algebra sl_r --n 3 --datum 2",
     "datum rejected: partition has 2 boxes, expected 3\n"),
    ("describe --algebra sl_c --n 3 --datum 2,2",
     "datum rejected: partition has 4 boxes, expected 3\n"),
    ("describe --algebra sl_h --n 2 --datum 3",
     "datum rejected: partition has 3 boxes, expected 2\n"),
    ("describe --algebra so_c --n 5 --datum 4,1",
     f"datum rejected: {_EVEN_PAIRS.format(4)}\n"),
    ("describe --algebra so_pq --p 2 --q 2 --datum 2,1,1 --signs 2:1,1:1",
     f"datum rejected: {_EVEN_PAIRS.format(2)}\n"),
    ("describe --algebra sp_c --n 2 --datum 3,1",
     f"datum rejected: {_ODD_PAIRS.format(3)}\n"),
    ("describe --algebra sp_pq --p 2 --q 1 --datum 3 --signs 3:1",
     "datum rejected: sign counts (1, 2) do not match the form signature (2,1)\n"),
    ("describe --algebra so_star --n 3 --datum 3 --signs 3:0",
     "datum rejected: rows of odd length 3 must all start with +1\n"),
    ("describe --algebra sl_r --n 3 --datum 2,1 --signs 2:1",
     "error: sl_r takes plain partitions; drop --signs\n"),
    ("describe --algebra so_star --n 3 --datum 2,1 --signs 2:1,2:0",
     "error: sign data names part 2 twice\n"),
]


@pytest.mark.parametrize("command,stderr", DESCRIBE_REJECTIONS, ids=lambda x: x[:60])
def test_describe_rejection_text_is_pinned(capsys, command, stderr):
    code = main(command.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", stderr)
