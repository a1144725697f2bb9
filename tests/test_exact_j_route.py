"""The exact_j route of :mod:`oscbath.thermo`, bit for bit.

The rows below are ``float.hex`` of F, S, U and C, one string per
temperature of THETAS.  A point is either cold, every argument at or above
10, and summed from the plan's power sums, or summed term by term in plan
order; which one depends on that point alone, and running the engine over
a sweep's temperatures keeps every operation of every point and its order,
so each row must come back the same to the bit, from :func:`thermo.sweep`
over the whole list and from :func:`thermo.thermo_point` alone.

The baths and the 40 temperatures reach every branch of
:func:`thermo._j_sum`: cold points with and without a mirror pair; single
real and complex arguments on both sides of the series switch, real ones
from 1/2 to 10 by the Taylor table; the mirror pair of a weakly damped
root below 1/4, between 1/4 and 1/2 (series difference), from 1/2 to 10
(the mirror Taylor table) and beyond; and the Omega pair below, astride
and above the series switch, in both orders (relaxation: Omega the larger;
blackbody: the smaller), near its mate (the real Taylor table's divided
differences) and far from it (two jets), for cutoffs above and far below
the oscillator frequency and overdamped roots.
"""

import math
import re

import pytest

from oscbath import cli, thermo
from oscbath import stieltjes as sj
from oscbath.baths import OhmicSpec, QEDSpec, SingleRelaxationSpec, canonicalize

THETAS = [10.0 ** (-5 + 8 * k / 39) for k in range(40)]

# (model, gamma, Omega') -> "F S U C" as float.hex at each theta of THETAS
EXACT_J_ROWS = {
    ('ohmic', 1e-08, None): (
        "-0x1.35140288b7f7cp-61 0x1.d79da860fd609p-44 "
         "0x1.3514028cd01acp-61 0x1.d79da86d7c096p-44",
        "-0x1.8d761120c71e2p-60 0x1.7a2b6a422445ep-43 "
         "0x1.8d76112e51b1ap-60 0x1.7a2b6a5be8e91p-43",
        "-0x1.ff1e3387505f4p-59 0x1.2f3d2406b9afep-42 "
         "0x1.ff1e33b4199fap-59 0x1.2f3d243bde04fp-42",
        "-0x1.48a349d0150bbp-57 0x1.e64f4f1f192dcp-42 "
         "0x1.48a34a1a24f66p-57 0x1.e64f4ffa49f87p-42",
        "-0x1.a69d3656989e3p-56 0x1.85f3bb811bef0p-41 "
         "0x1.a69d374b8c170p-56 0x1.85f3bd45261a2p-41",
        "-0x1.0fbb558a1e987p-54 0x1.38afcea31940ap-40 "
         "0x1.0fbb571f3109cp-54 0x1.38afd24758b33p-40",
        "-0x1.5d6f74c1fbfa5p-53 0x1.f5762fcb37375p-40 "
         "0x1.5d6f79fdb55b6p-53 0x1.f5763ed064c0bp-40",
        "-0x1.c15be1ceccd94p-52 0x1.921a14e951931p-39 "
         "0x1.c15bf31dc588bp-52 0x1.921a33e34cd0ap-39",
        "-0x1.20eda0a87853ep-50 0x1.426df118904d4p-38 "
         "0x1.20edbd47ef182p-50 0x1.426e30fac6e0ep-38",
        "-0x1.738cb8f456a93p-49 0x1.028b2fd6290bep-37 "
         "0x1.738d179f3fddap-49 0x1.028bb3963e0d9p-37",
        "-0x1.ddcc61386eaf0p-48 0x1.9ea247e74116fp-37 "
         "0x1.ddcd9a5497208p-48 0x1.9ea46759108e1p-37",
        "-0x1.33376a275d1a1p-46 0x1.4c7bba614d889p-36 "
         "0x1.33396ffa55fdcp-46 0x1.4c801b4244bbcp-36",
        "-0x1.8b133b02f3559p-45 0x1.0a9d9aa1ef60dp-35 "
         "0x1.8b19ebfa3ce01p-45 0x1.0aa6a2e75368cp-35",
        "-0x1.fc1374d5e9996p-44 0x1.ab9ef920f9ba3p-35 "
         "0x1.fc29990ebd256p-44 0x1.abc4417ad77f3p-35",
        "-0x1.46b9c4aa4b08dp-42 0x1.56fbd8463a08cp-34 "
         "0x1.46de6e1a4f645p-42 0x1.5748e1816b8f7p-34",
        "-0x1.a44cd32f29cf7p-41 0x1.133701b1bd834p-33 "
         "0x1.a4c67b030bb68p-41 0x1.13d6ab8b1a657p-33",
        "-0x1.0e7c2f08fbe08p-39 0x1.ba2892510afe0p-33 "
         "0x1.0f471ac92ba93p-39 0x1.bcc3be39bc26ap-33",
        "-0x1.5ca8728984de0p-38 0x1.647c09f42b2aap-32 "
         "0x1.5fd4406acb188p-38 0x1.72239965b52b1p-32",
        "-0x1.8009c86d22125p-34 0x1.19773a604548ep-25 "
         "0x1.a37ca9fe0c267p-30 0x1.4f54b834bf0c4p-21",
        "-0x1.0c45ad46dc7fdp-22 0x1.6a9edb652e27dp-15 "
         "0x1.a89dd91930b6ep-19 0x1.0a00239d83edbp-11",
        "-0x1.8b4b0ec00eb6ap-15 0x1.b1fa183044b85p-9 "
         "0x1.86408ea032b88p-12 0x1.7c5d04c7d99fap-6",
        "-0x1.848242c772526p-10 0x1.63355f2c6c35ep-5 "
         "0x1.dffdfc03d3da6p-8 0x1.6e53ab608119fp-3",
        "-0x1.fb26dac734a2ep-7 0x1.93545b5486e1ap-3 "
         "0x1.8eac4f5132159p-5 0x1.eca1f23576497p-2",
        "-0x1.5537b89782ba6p-4 0x1.f649a20246be2p-2 "
         "0x1.621d90dc31797p-3 0x1.7c95b4e80c0a1p-1",
        "-0x1.35b9a0af7d642p-2 0x1.c2ac06392a5ccp-1 "
         "0x1.bd4f809f3b0efp-2 0x1.c74b7ee8d2a23p-1",
        "-0x1.bb3d489286e91p-1 0x1.5166d95b43da1p+0 "
         "0x1.cf4a8baf68948p-1 0x1.e8ffca47133b1p-1",
        "-0x1.11303b162c0e5p+1 0x1.c6c5e47d008c8p+0 "
         "0x1.b166e6ff8b306p+0 0x1.f6e7eab86c067p-1",
        "-0x1.3164c6aa47c21p+2 0x1.1f25a6dd9709dp+1 "
         "0x1.7d562ea164a7cp+1 0x1.fc70da2421c20p-1",
        "-0x1.3f59b1fc6c11cp+3 0x1.5b551a72d335ep+1 "
         "0x1.4396591a7675bp+2 0x1.fe9cd336b3750p-1",
        "-0x1.3e846f48a91dep+4 0x1.97af1b064efb5p+1 "
         "0x1.0ca8dea472e83p+3 0x1.ff75c3d921f08p-1",
        "-0x1.32e07ebb48e3bp+5 0x1.d419b16ca6338p+1 "
         "0x1.b8384f4caf449p+3 0x1.ffca3b36245b9p-1",
        "-0x1.200e3223ead76p+6 0x1.08455e2026660p+2 "
         "0x1.65bb88cae55c1p+4 0x1.ffeb173aff2acp-1",
        "-0x1.0900e770d16afp+7 0x1.267f24e74d0fbp+2 "
         "0x1.213ccbfc7063dp+5 0x1.fff7dea348970p-1",
        "-0x1.dfea9507d215dp+7 0x1.44b968a6b03c2p+2 "
         "0x1.d240ac2fe89a4p+5 0x1.fffcd6b720598p-1",
        "-0x1.ad0c8162bbddfp+8 0x1.62f3dcfddbad1p+2 "
         "0x1.771227afcc174p+6 0x1.fffec555a644fp-1",
        "-0x1.7b96ae4893252p+9 0x1.812e6439ea75ap+2 "
         "0x1.2d5b2a747ca28p+7 0x1.ffff85a713a42p-1",
        "-0x1.4cedfca05139ep+10 0x1.9f68f2cea5d34p+2 "
         "0x1.e3e4a199dbaa1p+7 0x1.ffffd06de6c76p-1",
        "-0x1.21e18651d29b8p+11 0x1.bda3843e9e332p+2 "
         "0x1.8450d3d5c8c8dp+8 0x1.ffffed80f35bbp-1",
        "-0x1.f5aa25d0f42f3p+11 0x1.dbde16cae7de0p+2 "
         "0x1.378682d5b2b7dp+9 0x1.fffff8ceee421p-1",
        "-0x1.afc41573bca82p+12 0x1.fa18a9c5bda91p+2 "
         "0x1.f3c002baf477ap+9 0x1.fffffd3428925p-1",
    ),
    ('ohmic', 0.3, None): (
        "-0x1.145660a6f1da6p-36 0x1.a5a84d3d724bcp-19 "
         "0x1.145660aa7ed8ep-36 0x1.a5a84d4848534p-19",
        "-0x1.635ba61e9d80ep-35 0x1.521c266b83aa0p-18 "
         "0x1.635ba62a5be21p-35 0x1.521c2681dc94fp-18",
        "-0x1.c8f99ec5da652p-34 0x1.0f1ddc3fcbdc1p-17 "
         "0x1.c8f99eecb19b4p-34 0x1.0f1ddc6de22f2p-17",
        "-0x1.25d33bbaabb74p-32 0x1.b2cb7ae4c7912p-17 "
         "0x1.25d33bfae6a86p-32 0x1.b2cb7ba2df3ffp-17",
        "-0x1.79d8b18481d10p-31 0x1.5ca4f2a78606bp-16 "
         "0x1.79d8b258f0b82p-31 0x1.5ca4f42f8dcbap-16",
        "-0x1.e5e4ef38862fap-30 0x1.179051053a326p-15 "
         "0x1.e5e4f1f71ea0ep-30 0x1.1790542db78c6p-15",
        "-0x1.386b68f402e66p-28 0x1.c0577756113fcp-15 "
         "0x1.386b6d7de23ebp-28 0x1.c057845cc9cbcp-15",
        "-0x1.91c217a72200fp-27 0x1.6781d0b563ea9p-14 "
         "0x1.91c226a9e1a5ap-27 0x1.6781eb92a5506p-14",
        "-0x1.02526c4032cb0p-25 0x1.20463e51e7e88p-13 "
         "0x1.02528512ebc8bp-25 0x1.204675b90c6b2p-13",
        "-0x1.4c30f8ccb1f4ep-24 0x1.ce4fe627abeb6p-13 "
         "0x1.4c314ae656f27p-24 0x1.ce50caacc4dadp-13",
        "-0x1.ab2f595dfd907p-23 0x1.72b6245b092e2p-12 "
         "0x1.ab3068e906808p-23 0x1.72b7fba7921c7p-12",
        "-0x1.12ac3db701ea4p-21 0x1.29435511b3608p-11 "
         "0x1.12adfecb13afcp-21 0x1.2947212346932p-11",
        "-0x1.61396dca09a3ap-20 0x1.dcbeb65e02f9cp-11 "
         "0x1.613f3b539cf7cp-20 0x1.dcce60e04303cp-11",
        "-0x1.c641122b07cccp-19 0x1.7e522d3ec19acp-10 "
         "0x1.c65445adfd450p-19 0x1.7e7281f40a9c2p-10",
        "-0x1.241d137a9a526p-17 0x1.32a5b85461a58p-9 "
         "0x1.243cddf32b05bp-17 0x1.32e88446d8657p-9",
        "-0x1.77c56c1729aefp-16 0x1.ec1b11fa990a0p-9 "
         "0x1.782ee4a527e8cp-16 0x1.ed2fde728d165p-9",
        "-0x1.e3a4c5154b078p-15 0x1.8b4901bd767f6p-8 "
         "0x1.e5046e289f249p-15 0x1.8d8ad930035acp-8",
        "-0x1.37ac902d3f3dfp-13 0x1.3e68b0c6fdeaap-7 "
         "0x1.39febb97bd299p-13 0x1.433805e545942p-7",
        "-0x1.933777802c53cp-12 0x1.027f06e9f08bep-6 "
         "0x1.9b60e5412c2eep-12 0x1.0d6be248ae17fp-6",
        "-0x1.07d24ffe0ddcdp-10 0x1.aec8bd87cbefbp-6 "
         "0x1.1873308be37b8p-10 0x1.ed790e885573cp-6",
        "-0x1.6972ea2859e54p-9 0x1.90c1ed90bed6ep-5 "
         "0x1.c291c05e70df1p-9 0x1.371938ed944f2p-4",
        "-0x1.1f00787546283p-7 0x1.d59b335f097d7p-4 "
         "0x1.dbfbc38cdd7c3p-7 0x1.cc634b774bbcfp-3",
        "-0x1.09816c096acddp-5 0x1.1ce3a1ddbbd3ep-2 "
         "0x1.dcce71b972dcdp-5 0x1.e6d2a50ef2e39p-2",
        "-0x1.d7e7cc432613ep-4 0x1.1eaf0b32aa9f1p-1 "
         "0x1.6b06ccbe60b03p-3 0x1.68ff60b1008d3p-1",
        "-0x1.6978283e933e2p-2 0x1.dc57f8b19dd76p-1 "
         "0x1.b49351bb2566ap-2 0x1.b2de44a4d1cd2p-1",
        "-0x1.dfa917a93d46ep-1 0x1.59f50ccb6fce6p+0 "
         "0x1.c1db5d9aa8898p-1 0x1.d97a054f95204p-1",
        "-0x1.1d0e26ed8874cp+1 0x1.cc460dd509dc4p+0 "
         "0x1.a584da1046a95p+0 0x1.ec61e7850d54fp-1",
        "-0x1.38bce8fa1ffe9p+2 0x1.20e32371a821cp+1 "
         "0x1.74a91e42e784dp+1 0x1.f5a0cb0355a76p-1",
        "-0x1.43bc40b2733f6p+3 0x1.5c6cecccfa5b3p+1 "
         "0x1.3dd87b61d1318p+2 0x1.fa49cd02e7ab3p-1",
        "-0x1.4111734956bb3p+4 0x1.985e430fbcd35p+1 "
         "0x1.0913f572dea24p+3 0x1.fcbd4aef99513p-1",
        "-0x1.34550112ed6a8p+5 0x1.d48724f11a1e4p+1 "
         "0x1.b3ec38a71c7f2p+3 0x1.fe15e3d91be12p-1",
        "-0x1.20df7d0e2a3f2p+6 0x1.0867888f196b0p+2 "
         "0x1.63399346aef3cp+4 0x1.feda4bff377a6p-1",
        "-0x1.0975148d65002p+7 0x1.269476a8b188ap+2 "
         "0x1.1fcdc4870748bp+5 0x1.ff4d83429bbadp-1",
        "-0x1.e06a4b73b3592p+7 0x1.44c6b54dd5be1p+2 "
         "0x1.d0a38a41d933ap+5 0x1.ff9284a1ad067p-1",
        "-0x1.ad5221c084fd7p+8 0x1.62fc28859c5b9p+2 "
         "0x1.762c8560ac89ep+6 0x1.ffbc7065e407ap-1",
        "-0x1.7bbc6132969eap+9 0x1.8133909176cfcp+2 "
         "0x1.2cdccf6230f93p+7 0x1.ffd625b96cff7p-1",
        "-0x1.4d02477ef49ffp+10 0x1.9f6c2caf07be1p+2 "
         "0x1.e35abbd9b456cp+7 0x1.ffe602803f13ap-1",
        "-0x1.21ec6479b1205p+11 0x1.bda587409154fp+2 "
         "0x1.84061b62a4927p+8 0x1.ffefd5dcb6f72p-1",
        "-0x1.f5b5bcb3b0ba1p+11 0x1.dbdf57f032289p+2 "
         "0x1.375e43bffb775p+9 0x1.fff5efce3b848p-1",
        "-0x1.afca3d4342528p+12 0x1.fa1972071e57cp+2 "
         "0x1.f394e0bd8a79ap+9 0x1.fff9bb394aaf4p-1",
    ),
    ('ohmic', 2.0, None): (
        "-0x1.cc8ff66799493p-34 0x1.5f6195ad23895p-16 "
         "0x1.cc8ff66590abcp-34 0x1.5f6195aa09240p-16",
        "-0x1.2821b512f020bp-32 0x1.19c21ff7c0310p-15 "
         "0x1.2821b50f9331cp-32 0x1.19c21ff159e61p-15",
        "-0x1.7cd00439cc9c9p-31 0x1.c3dc6ee163d2dp-15 "
         "0x1.7cd0042ead2f9p-31 0x1.c3dc6ec6fe7a9p-15",
        "-0x1.e9b5634488546p-30 0x1.6a543b5439e45p-14 "
         "0x1.e9b5631fbed69p-30 0x1.6a543b1dca21ap-14",
        "-0x1.3adf3e222885ep-28 0x1.22897405752bfp-13 "
         "0x1.3adf3de552f54p-28 0x1.2289739531458p-13",
        "-0x1.94e9707b168bdp-27 0x1.d1f0837f71e9ep-13 "
         "0x1.94e96fb1e301fp-27 0x1.d1f081b064974p-13",
        "-0x1.04597f9633769p-25 0x1.759e317cc7194p-12 "
         "0x1.04597e497a3eap-25 0x1.759e2dc1d1e96p-12",
        "-0x1.4ecc60a3ea150p-24 0x1.2b96c98cee2f4p-11 "
         "0x1.4ecc5c5779c46p-24 0x1.2b96c1db82ee6p-11",
        "-0x1.ae89434a4d2a0p-23 0x1.e074d47fba7efp-11 "
         "0x1.ae893512c0ac9p-23 0x1.e074b4c4a4ad3p-11",
        "-0x1.14d34c094e864p-21 0x1.81421531c3589p-10 "
         "0x1.14d33486ae059p-21 0x1.8141d3c1967c3p-10",
        "-0x1.63fc327428e89p-20 0x1.34ec1673a0950p-9 "
         "0x1.63fbe4b2addcdp-20 0x1.34eb8f804cd0dp-9",
        "-0x1.c9c7c566017fbp-19 0x1.ef6bf8278e346p-9 "
         "0x1.c9c6c43e2a775p-19 0x1.ef69cb9255a75p-9",
        "-0x1.265746a7135d8p-17 0x1.8d40d36476a6ep-8 "
         "0x1.26559d7281c08p-17 0x1.8d3c57be3103cp-8",
        "-0x1.7a80d0ac36688p-16 0x1.3e87ba672b7d4p-7 "
         "0x1.7a7b52c747112p-16 0x1.3e7e7ca4b0f6dp-7",
        "-0x1.e6b79479b7bb2p-15 0x1.fec99050e3141p-7 "
         "0x1.e6a56e3457e48p-15 0x1.fea37d94b4c4fp-7",
        "-0x1.38e9aea07c3d5p-13 0x1.997c6cfa385f4p-6 "
         "0x1.38cbba246ab7cp-13 0x1.992e22d395520p-6",
        "-0x1.9246412d6365bp-12 0x1.48287fa16f86ap-5 "
         "0x1.91e3ac6af2c97p-12 0x1.47883c1d53c22p-5",
        "-0x1.0275dd139c38cp-10 0x1.06beef5d129e2p-4 "
         "0x1.01d4dcbc20ee9p-10 0x1.057a7b583b9cdp-4",
        "-0x1.4bbe31ffecc46p-9 0x1.a3cef237cdff6p-4 "
         "0x1.49b996b91fbecp-9 0x1.9eceb8b71b290p-4",
        "-0x1.a8a35836c2881p-8 0x1.4da1625ebac7ep-3 "
         "0x1.a2688b9a907e7p-8 0x1.44489636b6180p-3",
        "-0x1.0e1b6b98baf90p-6 0x1.063313ad3990cp-2 "
         "0x1.0529e9e528a8fp-6 0x1.eca99191a8188p-3",
        "-0x1.536f3cc42b1ddp-5 0x1.93b6744113228p-2 "
         "0x1.3c7dc4f40f259p-5 0x1.64dce99fe8c1bp-2",
        "-0x1.a1b6feadc9234p-4 0x1.2d10aeba41b70p-1 "
         "0x1.6ebedc3fdc2f1p-4 0x1.e50651f011f7dp-2",
        "-0x1.f2c82f077a448p-3 0x1.af0dad85f416cp-1 "
         "0x1.91d59840c453ap-3 0x1.3349d009eb1ccp-1",
        "-0x1.1ef8ef71a9c08p-1 0x1.2718097facfa9p+0 "
         "0x1.9ed4550d5e840p-2 0x1.6cd86f87cb7f9p-1",
        "-0x1.3d4f350a37ab8p+0 0x1.82edab0c1b515p+0 "
         "0x1.94fad95849a99p-1 0x1.9acd2f0a0b0e5p-1",
        "-0x1.516dfe9745d1dp+1 0x1.e82a8a008eda8p+0 "
         "0x1.78dce0284fb05p+0 0x1.bca4e42d2f795p-1",
        "-0x1.5a3b594a76216p+2 0x1.2a10e1eace062p+1 "
         "0x1.5162dbc7b7179p+1 0x1.d42dabdac3675p-1",
        "-0x1.584b97695fe5dp+3 0x1.6257cdb4f232ep+1 "
         "0x1.251eca78313efp+2 0x1.e3ebce3eb2510p-1",
        "-0x1.4d4e45dc9a518p+4 0x1.9c229827ad69bp+1 "
         "0x1.f1f145605cc79p+2 0x1.ee2fb78bad2b7p-1",
        "-0x1.3b7224bccb17ep+5 0x1.d6e8397130a6fp+1 "
         "0x1.9ff1ab0d9a6dbp+3 0x1.f4c54d754926bp-1",
        "-0x1.24eebadfe0ca2p+6 0x1.0926f3c125c7dp+2 "
         "0x1.57424f94a8f37p+4 0x1.f8f32f2701957p-1",
        "-0x1.0bbd7282ca78ap+7 0x1.270c6aefeb361p+2 "
         "0x1.18d1e040b22d6p+5 0x1.fb95c7000065cp-1",
        "-0x1.e2f3aa3a95ba6p+7 0x1.4511bcdf1e741p+2 "
         "0x1.c8a557234ae99p+5 0x1.fd3d5c1cbc4c5p-1",
        "-0x1.aeb7661b1a72bp+8 0x1.632b088dbf08bp+2 "
         "0x1.71aba0489bc29p+6 0x1.fe46a2fcafd79p-1",
        "-0x1.7c7f5446ad040p+9 0x1.8150d4344df57p+2 "
         "0x1.2a5b43c8ca834p+7 0x1.feec800cbda38p-1",
        "-0x1.4d6beb7d35332p+10 0x1.9f7e6f9a8e56ep+2 "
         "0x1.e097f72c822e1p+7 0x1.ff541998e60a5p-1",
        "-0x1.22254c52e6681p+11 0x1.bdb0ebaa57280p+2 "
         "0x1.82841283c6784p+8 0x1.ff94c4a04c4bfp-1",
        "-0x1.f5f2bacac5a4ap+11 0x1.dbe6730005ee0p+2 "
         "0x1.368ce8ee54142p+9 0x1.ffbd1e5694bbep-1",
        "-0x1.afeac78cdb456p+12 0x1.fa1de082e7c7dp+2 "
         "0x1.f2b32d97d89e2p+9 0x1.ffd64a168f218p-1",
    ),
    ('ohmic', 10000.0, None): (
        "-0x1.15bd27e215cc9p-21 0x1.a31391404f91ep-4 "
         "0x1.0f8d8fc878578p-21 0x1.9198122b9742ap-4",
        "-0x1.5f818a31cfaf3p-20 0x1.466b582087676p-3 "
         "0x1.4ea2cd42d4e71p-20 0x1.2a9c3ef9f8c8fp-3",
        "-0x1.b5a48032c30edp-19 0x1.ef5562a57e434p-3 "
         "0x1.8d41b5662508dp-19 0x1.a3a7f9f7ab6d8p-3",
        "-0x1.098a2ffc7932bp-17 0x1.6a3982e185e96p-2 "
         "0x1.c00e2be687a26p-18 0x1.135d7a1963f87p-2",
        "-0x1.37746a2d07275p-16 0x1.fb378d9aea4a6p-2 "
         "0x1.dc7e1b5da43ddp-17 0x1.51582a64381a0p-2",
        "-0x1.5f5995ede7b3ep-15 0x1.53a7816f52ad2p-1 "
         "0x1.ddf80d43493f7p-16 0x1.8561cb96f273cp-2",
        "-0x1.7ce05264eb8e6p-14 0x1.b48ca9c2555eep-1 "
         "0x1.c70e9dc2975a2p-15 0x1.ad2824578d3bfp-2",
        "-0x1.8da7ac6c0cf69p-13 0x1.0eba5b446c028p+0 "
         "0x1.9edf1831bd74ap-14 0x1.c98b7c5a4b723p-2",
        "-0x1.9173495eb3d2bp-12 0x1.45f90b73b33fdp+0 "
         "0x1.6d8392eb56fbap-13 0x1.dcde552cc945bp-2",
        "-0x1.89aae5b3e82a1p-11 0x1.7f168e6669a5ep+0 "
         "0x1.39ba86f5f3752p-12 0x1.e99cf89168e3ap-2",
        "-0x1.78a0af98ffc07p-10 0x1.b96ca2fdc432ep+0 "
         "0x1.0816f9e2f40f8p-11 0x1.f1d90f3cbd651p-2",
        "-0x1.60eeb0fb24d55p-9 0x1.f48b59fe7ba8bp+0 "
         "0x1.b6514544f52d9p-11 0x1.f7195c4fd1184p-2",
        "-0x1.4509835056ff3p-8 0x1.1814bce94c24bp+1 "
         "0x1.6804fdaa28e56p-10 0x1.fa6b7dd8afb3dp-2",
        "-0x1.2706ac8527f15p-7 0x1.360bfb3d555b2p+1 "
         "0x1.258b4c2400e56p-9 0x1.fc824f28bb655p-2",
        "-0x1.0888b8af0d79dp-6 0x1.541c764a2d7d5p+1 "
         "0x1.dc3599b8643c6p-9 0x1.fdd1aed2a830ap-2",
        "-0x1.d5846beb3d22cp-6 0x1.723cc0e31c16cp+1 "
         "0x1.80df352363d1dp-8 0x1.fea399d303778p-2",
        "-0x1.9d0848e8869d2p-5 0x1.9066efd895ad3p+1 "
         "0x1.364553479e32cp-7 0x1.ff26e5b7f8237p-2",
        "-0x1.68a0e64825aaap-4 0x1.ae974ef2b51a0p+1 "
         "0x1.f364b74e117a6p-7 0x1.ff79121fa33e9p-2",
        "-0x1.38d8b7753fe4dp-3 0x1.cccb8ea97490cp+1 "
         "0x1.916bd119ef1e9p-6 0x1.ffaca9ec331a3p-2",
        "-0x1.0de1352dc0e5ep-2 0x1.eb023fbeb866ep+1 "
         "0x1.4268f5f3bb4c0p-5 0x1.ffcd5995ac887p-2",
        "-0x1.cf5b31b646e5bp-2 0x1.049d4049a0718p+2 "
         "0x1.02cf68bfc2970p-4 0x1.ffe289a997f24p-2",
        "-0x1.8c0fb93a7d460p-1 0x1.13b9e51780340p+2 "
         "0x1.9f5cb16944910p-4 0x1.fff108e015883p-2",
        "-0x1.514140f519938p+0 0x1.22d6e8d9a9d0ap+2 "
         "0x1.4d39bdad45b7dp-3 0x1.fffc21e3358f7p-2",
        "-0x1.1e359fff3086cp+1 0x1.31f43bb181fa0p+2 "
         "0x1.0b4a323a14f64p-2 0x1.00032d090b1c2p-1",
        "-0x1.e44f983fa4dd8p+1 0x1.4111dfb82ab9bp+2 "
         "0x1.acc2c4710241fp-2 0x1.000901f1473dbp-1",
        "-0x1.98a65574a82a5p+2 0x1.502fe9797e57dp+2 "
         "0x1.57def1f57041cp-1 0x1.0010e2ef2c60ap-1",
        "-0x1.57f5eec12eb28p+3 0x1.5f4e849fcf6fap+2 "
         "0x1.13c8b89a7fe28p+0 0x1.001c9a66bbf65p-1",
        "-0x1.20dd95c2a993cp+4 0x1.6e6dfde082de8p+2 "
         "0x1.ba5db472434ccp+0 0x1.002ed205df06dp-1",
        "-0x1.e4344b948a518p+4 0x1.7d8ed46afb500p+2 "
         "0x1.62ce66af4c5d2p+1 0x1.004badad989f9p-1",
        "-0x1.9510631620192p+5 0x1.8cb1d6cfe7d0ap+2 "
         "0x1.1c9c811498abdp+2 0x1.0079bc4740eaap-1",
        "-0x1.5248399014722p+6 0x1.9bd851f181b7ap+2 "
         "0x1.c8b3361850168p+2 0x1.00c37526c3008p-1",
        "-0x1.1a11e1b1a4c9bp+7 0x1.ab045ca316706p+2 "
         "0x1.6e8ade3d097dcp+3 0x1.0139983956d1ap-1",
        "-0x1.d5b9aa334baf9p+7 0x1.ba395114dab63p+2 "
         "0x1.26575249cca8ap+4 0x1.01f6f9754f719p-1",
        "-0x1.869a6d4a1faedp+8 0x1.c97c8f56cf98bp+2 "
         "0x1.d921b925759d7p+4 0x1.03268d0de3847p-1",
        "-0x1.446d707624ce4p+9 0x1.d8d6b3e884a20p+2 "
         "0x1.7cc953284da28p+5 0x1.050cf67a0212ep-1",
        "-0x1.0d2ef0dfa8fdbp+10 0x1.e85583d201c85p+2 "
         "0x1.3322ea952e6f5p+6 0x1.08174d508d6bcp-1",
        "-0x1.be4c396669e07p+10 0x1.f80ee98ee2e47p+2 "
         "0x1.f12c8c4bc4ea4p+6 0x1.0cf091de562f7p-1",
        "-0x1.71b78cbc257efp+11 0x1.0412b038be119p+3 "
         "0x1.948de78c9492dp+7 0x1.149b9f0d9ea0cp-1",
        "-0x1.32239739dad11p+12 0x1.0c66d6fc1f6c5p+3 "
         "0x1.4bd7411b0818fp+8 0x1.2080181477025p-1",
        "-0x1.faec7f078d4e8p+12 0x1.1529df6cc5118p+3 "
         "0x1.134a4ac71cbd4p+9 0x1.323301c2af0b0p-1",
    ),
    ('srt', 0.01, 10000.0): (
        "-0x1.26c2896c1e61fp-41 0x1.c1c496f394744p-24 "
         "0x1.26c2897005ee2p-41 0x1.c1c496ff7ed4fp-24",
        "-0x1.7b0c6d2d3e552p-40 0x1.68a68f9e7d947p-23 "
         "0x1.7b0c6d3a28350p-40 0x1.68a68fb71069ep-23",
        "-0x1.e770a9adfed26p-39 0x1.2130eb1ffe5cbp-22 "
         "0x1.e770a9d8b492bp-39 0x1.2130eb52ac083p-22",
        "-0x1.3969d9854a030p-37 0x1.cfc7fade92b56p-22 "
         "0x1.3969d9cbeafeap-37 0x1.cfc7fbaf9a40ep-22",
        "-0x1.93094629cae6bp-36 0x1.73e3253bcf5c8p-21 "
         "0x1.930947136369cp-36 0x1.73e326eae4f15p-21",
        "-0x1.0324c40b250edp-34 0x1.2a3389de86d8ap-20 "
         "0x1.0324c58d704d8p-34 0x1.2a338d578ed49p-20",
        "-0x1.4d3f5f2d32d9dp-33 0x1.de3b2a7c95674p-20 "
         "0x1.4d3f642ad1095p-33 0x1.de3b38cf823ddp-20",
        "-0x1.ac8ac46cb003ep-32 0x1.7f7967d9885c6p-19 "
         "0x1.ac8ad4ee4016ep-32 0x1.7f798563e6716p-19",
        "-0x1.138b1eb9470aep-30 0x1.337e2174a51fap-18 "
         "0x1.138b3a050f08dp-30 0x1.337e5e60b7dc0p-18",
        "-0x1.6256604df4f9fp-29 0x1.ed220aa75bca0p-18 "
         "0x1.6256ba95660d6p-29 0x1.ed2305f06cddcp-18",
        "-0x1.c7a9fdb2a1c53p-28 0x1.8b6cfb9aa7ab2p-17 "
         "0x1.c7ab284af3e73p-28 0x1.8b6f01db21135p-17",
        "-0x1.24fc05277e407p-26 0x1.3d14af3b960bap-16 "
         "0x1.24fdf2f92e13fp-26 0x1.3d18dc2681457p-16",
        "-0x1.78c5e32b5972ap-25 0x1.fc876b5aab2cep-16 "
         "0x1.78cc44b9fb630p-25 0x1.fc98a58399cc5p-16",
        "-0x1.e489fe5286f03p-24 0x1.97cfa7ec02edfp-15 "
         "0x1.e49f1bc79495dp-24 0x1.97f335d1fa665p-15",
        "-0x1.379701a000797p-22 0x1.47184573d4652p-14 "
         "0x1.37b9f7f9e5611p-22 0x1.4761bc740b12ep-14",
        "-0x1.90d453dacac25p-21 0x1.067720dea2f0bp-13 "
         "0x1.914857ec21a36p-21 0x1.070f63e399152p-13",
        "-0x1.01f465a18274ap-19 0x1.a5acd6b1dbfc2p-13 "
         "0x1.02b5e92ada890p-19 0x1.a82914b106243p-13",
        "-0x1.4c7dcb552a6ccp-18 0x1.53b7ce9bd5f1ap-12 "
         "0x1.4f0cbab56a715p-18 0x1.5906e5aea3c04p-12",
        "-0x1.ae3e67fb12d42p-17 0x1.13f26c4a42826p-11 "
         "0x1.b757fe5f3811dp-17 0x1.2074db4ddd92dp-11",
        "-0x1.1bdb647481425p-15 0x1.e3890db8570ecp-11 "
         "0x1.47100c7352f21p-15 0x1.8e37237c26cd7p-10",
        "-0x1.229424b0cd146p-13 0x1.3feaa55d5f41cp-8 "
         "0x1.f6eda487a254fp-12 0x1.9c7dffa84ea0cp-6",
        "-0x1.c6b35b6c9b5dbp-10 0x1.781c099eb0824p-5 "
         "0x1.f1671e9a3ffe2p-8 0x1.71f4bd484ad33p-3",
        "-0x1.07686208fa6f5p-6 0x1.99517597facebp-3 "
         "0x1.918f2bb516258p-5 0x1.ec5ccf29ae8f4p-2",
        "-0x1.59dd803667084p-4 0x1.f8cdd0b0eca7ap-2 "
         "0x1.626ba22135c9bp-3 0x1.7bd6f1f6cb9c8p-1",
        "-0x1.378e3e16676edp-2 0x1.c39062400a37ap-1 "
         "0x1.bcf97888deefbp-2 0x1.c68d9e831426bp-1",
        "-0x1.bc84b5327a601p-1 0x1.51b1dc878d1dep+0 "
         "0x1.ceccaa1eb4c41p-1 0x1.e873e13700110p-1",
        "-0x1.119a2c179aa74p+1 0x1.c6f5a5e432c04p+0 "
         "0x1.b0f9e7d1d09a0p+0 0x1.f68af455d25d6p-1",
        "-0x1.31a5f40d2e61ep+2 0x1.1f34a9e012957p+1 "
         "0x1.7d07b1de5dc9cp+1 0x1.fc35705fd58abp-1",
        "-0x1.3f806b81932acp+3 0x1.5b5e7e932314ap+1 "
         "0x1.4362eab82032ap+2 0x1.fe776b1fd65c5p-1",
        "-0x1.3e9adf21c8b83p+4 0x1.97b4f8130faf6p+1 "
         "0x1.0c89059e1da61p+3 0x1.ff5e59da14c16p-1",
        "-0x1.32ed4089cba1dp+5 0x1.d41d59e7e2f02p+1 "
         "0x1.b812508735b24p+3 0x1.ffbb9bf9da5cbp-1",
        "-0x1.2015580e6f1cfp+6 0x1.0846822aca702p+2 "
         "0x1.65a575c11d298p+4 0x1.ffe1f7bcad702p-1",
        "-0x1.0904dcec45fb8p+7 0x1.267fdb08721adp+2 "
         "0x1.2130387e1f1aep+5 0x1.fff22e0b2ef9bp-1",
        "-0x1.dfeeed0d56032p+7 0x1.44b9da3d10db8p+2 "
         "0x1.d2328eafcf42cp+5 0x1.fff94a7b2d165p-1",
        "-0x1.ad0edeadcbf4cp+8 0x1.62f423d8855b7p+2 "
         "0x1.770a53f6b424ap+6 0x1.fffc8f2db4369p-1",
        "-0x1.7b97f5961692fp+9 0x1.812e9072c3253p+2 "
         "0x1.2d56de2979a54p+7 0x1.fffe24f093aeap-1",
        "-0x1.4ceeac9fe32dfp+10 0x1.9f690e725c425p+2 "
         "0x1.e3dff3060940cp+7 0x1.fffef500d8e54p-1",
        "-0x1.21e1e48426f3ep+11 0x1.bda39594fe08fp+2 "
         "0x1.844e4b9759526p+8 0x1.ffff6579dff2fp-1",
        "-0x1.f5aa8a4557fd2p+11 0x1.dbde21c3abccbp+2 "
         "0x1.3785267702e80p+9 0x1.ffffa52eca06cp-1",
        "-0x1.afc44ae22bf3cp+12 0x1.fa18b0dbece4ap+2 "
         "0x1.f3be8ea4cb1c2p+9 0x1.ffffcab811eecp-1",
    ),
    ('srt', 1.0, 100.0): (
        "-0x1.cc9ba2df9bc7fp-35 0x1.5f6a7db4c6bcap-17 "
         "0x1.cc9ba2e3ad02fp-35 0x1.5f6a7dbafb872p-17",
        "-0x1.2829369b6806dp-33 0x1.19c9444105261p-16 "
         "0x1.282936a221e4cp-33 0x1.19c9444dd1bbep-16",
        "-0x1.7cd9ab463b40ap-32 0x1.c3e7e30825458p-16 "
         "0x1.7cd9ab5c7a1aap-32 0x1.c3e7e33ceff60p-16",
        "-0x1.e9c1cd0fb85d6p-31 0x1.6a5d6ab270456p-15 "
         "0x1.e9c1cd594b595p-31 0x1.6a5d6b1f4fcb4p-15",
        "-0x1.3ae7399aaa7bfp-29 0x1.2290d1e3cc91ep-14 "
         "0x1.3ae73a14559e4p-29 0x1.2290d2c45461cp-14",
        "-0x1.94f3b50442dd3p-28 0x1.d1fc558f0ceeep-14 "
         "0x1.94f3b696a9faap-28 0x1.d1fc592d27b5dp-14",
        "-0x1.04601adec2d90p-26 0x1.75a7af61f2db4p-13 "
         "0x1.04601d783572ep-26 0x1.75a7b6d7ddf12p-13",
        "-0x1.4ed4e37fae963p-25 0x1.2b9e6d099e082p-12 "
         "0x1.4ed4ec1890a0bp-25 0x1.2b9e7c6c78555p-12",
        "-0x1.ae94423e001b5p-24 0x1.e08131a3f3a46p-12 "
         "0x1.ae945ead2521ap-24 0x1.e081711a47a28p-12",
        "-0x1.14da738b3008cp-22 0x1.814c3b2f9b456p-11 "
         "0x1.14daa290a4566p-22 0x1.814cbe10cb3aap-11",
        "-0x1.6405acfae10ccp-21 0x1.34f4b5667c7bap-10 "
         "0x1.6406487f8bb73p-21 0x1.34f5c35194b2cp-10",
        "-0x1.c9d4e194084ebp-20 0x1.ef7bc9cc450c2p-10 "
         "0x1.c9d6e3f238725p-20 0x1.ef802325d08e8p-10",
        "-0x1.26613a7ef5deap-18 0x1.8d519f12cf168p-9 "
         "0x1.26648d25cb407p-18 0x1.8d5a97592157bp-9",
        "-0x1.7a92a69b4de3ep-17 0x1.3e9dac98a361ap-8 "
         "0x1.7a9da471af9b5p-17 0x1.3eb02d496e6fep-8",
        "-0x1.e6df2cfb1a87cp-16 0x1.ff0fbaa0d506ep-8 "
         "0x1.e7038aecd47d7p-16 0x1.ff5c16d89a4bbp-8",
        "-0x1.391eb10049517p-14 0x1.99fcceb0ac9bep-7 "
         "0x1.395ae3b2a44e9p-14 0x1.9a9a83e05c0b2p-7",
        "-0x1.92e58a5911cc0p-13 0x1.49242c8ffea2ep-6 "
         "0x1.93ad20b95917bp-13 0x1.4a6a9b5127466p-6",
        "-0x1.0372f54b5165ep-11 0x1.08bb74cd2610fp-5 "
         "0x1.04bf01386be18p-11 0x1.0b62939c7735cp-5",
        "-0x1.4ef5d0cb68d4ap-10 0x1.abee557813f9dp-5 "
         "0x1.534e57091d3e2p-10 0x1.b70fc91668dffp-5",
        "-0x1.b32d1a687f7d6p-9 0x1.5e32c4836afb4p-4 "
         "0x1.c1bc48dc2ec52p-9 0x1.7536a20dcd369p-4",
        "-0x1.1efc9b00277d3p-7 0x1.26638e55065f6p-3 "
         "0x1.3581a7ce40515p-7 0x1.4ee8bf6b09ef8p-3",
        "-0x1.84699e04d2235p-6 0x1.fe94d7e9bf142p-3 "
         "0x1.b9257f53b82c5p-6 0x1.2d025a487bd8bp-2",
        "-0x1.0b7d967124587p-4 0x1.b77b0dae30241p-2 "
         "0x1.311187f773eedp-4 0x1.e3316cfb4324ep-2",
        "-0x1.6967d6095669bp-3 0x1.6386bfa0b1ff2p-1 "
         "0x1.7d68bd44222bfp-3 0x1.4adbf861c1cf0p-1",
        "-0x1.ce2f9e70e0d73p-2 0x1.0868d57d6663fp+0 "
         "0x1.a7c6126190493p-2 0x1.8ec5368065360p-1",
        "-0x1.140d513ae5586p+0 0x1.6c410f34f566ap+0 "
         "0x1.aa92d05014bb4p-1 0x1.bb5287817b423p-1",
        "-0x1.352deec67f4f3p+1 0x1.d8722c0ca449ap+0 "
         "0x1.8f7ec3676e6cbp+0 0x1.d6a20f329b8c3p-1",
        "-0x1.47f7765bae9f9p+2 0x1.24d8be7ba5c84p+1 "
         "0x1.63e2213d7a127p+1 0x1.e70a25bc98abep-1",
        "-0x1.4cfed3f57189cp+3 0x1.5efd485e52670p+1 "
         "0x1.326dc6f1733c4p+2 0x1.f0ee7cfe88572p-1",
        "-0x1.468eb8de480f7p+4 0x1.9a0dad73c3718p+1 "
         "0x1.01d7d4a1c4be3p+3 0x1.f6faafc3e7c6fp-1",
        "-0x1.3789d2f5b9b4ap+5 0x1.d5af4941d3d94p+1 "
         "0x1.ab3805f10e0d0p+3 0x1.fabadca7d721fp-1",
        "-0x1.22bd71e8baa77p+6 0x1.08d590ac46c59p+2 "
         "0x1.5e366ee0a7c79p+4 0x1.fd0e567cf7ce6p-1",
        "-0x1.0a8e7ef213714p+7 0x1.26ef276017ef5p+2 "
         "0x1.1d079b8989e0cp+5 0x1.fe744e94d7297p-1",
        "-0x1.e1bed1ac74189p+7 0x1.4518ee06d3908p+2 "
         "0x1.cdad914865e50p+5 0x1.ff3e0b35c1f5ep-1",
        "-0x1.ae28f4c218dd9p+8 0x1.634b810539281p+2 "
         "0x1.74a4b40cdf282p+6 0x1.ffa6ce0b739e0p-1",
        "-0x1.7c4aea7a51188p+9 0x1.81827c5c09d42p+2 "
         "0x1.2c1782f9b335fp+7 0x1.ffd90f209484ep-1",
        "-0x1.4d65c1230062bp+10 0x1.9fbb85086f474p+2 "
         "0x1.e2981618b2892p+7 0x1.ffefa4a1893d8p-1",
        "-0x1.2234e7334d1b6p+11 0x1.bdf57495b6770p+2 "
         "0x1.83a799244d91cp+8 0x1.fff94fe4f38f0p-1",
        "-0x1.f6230531915c5p+11 0x1.dc2fc5759e5c7p+2 "
         "0x1.3730ef6e91c9fp+9 0x1.fffd507e4f63dp-1",
        "-0x1.b01e868687f93p+12 0x1.fa6a3e33f849cp+2 "
         "0x1.f369d1c1c3f6cp+9 0x1.fffeef296155ap-1",
    ),
    ('srt', 0.3, 0.001): (
        "-0x1.c05978076f115p-25 0x1.5604b9ae066e6p-7 "
         "0x1.c03b3baee76c7p-25 0x1.55d6a4158aa47p-7",
        "-0x1.20382fb4af37fp-23 0x1.1223369a8634cp-6 "
         "0x1.20065c6581013p-23 0x1.11c4ab718f3e0p-6",
        "-0x1.727125f4cadeep-22 0x1.b72d56883498dp-6 "
         "0x1.71cdcf68da1e1p-22 0x1.b5ac7ccd2bfb8p-6",
        "-0x1.dbbc0fcd51b15p-21 0x1.5f39e16b2ae70p-5 "
         "0x1.d9ab82b87bdfap-21 0x1.5c39516b7b7f5p-5",
        "-0x1.30ded97511165p-19 0x1.17cfcc1c0a8a4p-4 "
         "0x1.2da06038a2286p-19 0x1.120f9047b4ff7p-4",
        "-0x1.84f38f67a6320p-18 0x1.ba0a854b7195ap-4 "
         "0x1.7b55f83c0e5b2p-18 0x1.a5afd5bc856fap-4",
        "-0x1.eb73facadc90dp-17 0x1.575c124c0fa62p-3 "
         "0x1.d19af79592e58p-17 0x1.378e4e2419ffcp-3",
        "-0x1.311609ff5911cp-15 0x1.0368d4372f8fcp-2 "
         "0x1.12b50f8d58091p-15 0x1.b212d65ab9e5ap-3",
        "-0x1.70b9654c8a64ap-14 0x1.794dd6494bdbcp-2 "
         "0x1.337a8ed38f5eep-14 0x1.1a0e2b562bd96p-2",
        "-0x1.ae4f0992efc9bp-13 0x1.068923a12e0e6p-1 "
         "0x1.44440d163e5dap-13 0x1.5634b67fd0470p-2",
        "-0x1.e2bc590fafbafp-12 0x1.5d68ce069acdep-1 "
         "0x1.428b2c91cf5ffp-12 0x1.87622b6ff25adp-2",
        "-0x1.0429b77fa4559p-10 0x1.be5b087e88fbbp-1 "
         "0x1.308e0da3994cep-11 0x1.ab70c88e490c9p-2",
        "-0x1.0e167bbbcf3d2p-9 0x1.1328872895037p+0 "
         "0x1.1351a26a51c08p-10 0x1.c307e0e23aa47p-2",
        "-0x1.0f1f37f2e17e0p-8 0x1.4944824b62a50p+0 "
         "0x1.e084527bb6d8fp-10 0x1.cfc3389f952dcp-2",
        "-0x1.084c2fc6f785dp-7 0x1.804dc7c272c15p+0 "
         "0x1.977a90a106084p-9 0x1.d2db766e161ecp-2",
        "-0x1.f668668aaf33ep-7 0x1.b7267e4c91027p+0 "
         "0x1.51420190cb58ep-8 0x1.cc78e37761acep-2",
        "-0x1.d3246b9749f90p-6 0x1.eca3341c0a7aep+0 "
         "0x1.10f11f84fc1d4p-7 0x1.bb94ceea69458p-2",
        "-0x1.aa03479dd2717p-5 0x1.0fb75400d764ap+1 "
         "0x1.af9f4e4115203p-7 0x1.9ea905c4ea7ddp-2",
        "-0x1.7dc159195421ep-4 0x1.270bab864e10ep+1 "
         "0x1.4c863a54c0c69p-6 0x1.75e7054929993p-2",
        "-0x1.50a09130b102ep-3 0x1.3bc1f7002a2f9p+1 "
         "0x1.f284beccf7b81p-6 0x1.483f251664d94p-2",
        "-0x1.2496634a454f8p-2 0x1.4e4dc146d84ebp+1 "
         "0x1.70c6bd1709677p-5 0x1.3664ec20ead9cp-2",
        "-0x1.f77a59d60d67ep-2 0x1.629baf0d272dep+1 "
         "0x1.22a9fc8c1b69bp-4 0x1.91a2026247aaap-2",
        "-0x1.b0f34299d4effp-1 0x1.80186826b1038p+1 "
         "0x1.0dcf33e752a4bp-3 0x1.2f82c904b2500p-1",
        "-0x1.780a9ee7726d8p+0 0x1.aa09e56d918aap+1 "
         "0x1.141c91053bb9cp-2 0x1.918f3ed7ce9dbp-1",
        "-0x1.4ae9ee6252f07p+1 0x1.dd5f0e3483ff3p+1 "
         "0x1.13e0bf222a5f5p-1 0x1.cd82c0dee77e3p-1",
        "-0x1.25ca3a5fe323ap+2 0x1.0ae828749cafdp+2 "
         "0x1.031718710b501p+0 0x1.eaa7fc1d7f99fp-1",
        "-0x1.058893fe7eedep+3 0x1.284d94a9c4fd2p+2 "
         "0x1.cd31b7c262c63p+0 0x1.f7537a7f68faap-1",
        "-0x1.d0b25960e61f8p+3 0x1.46325c3e31ea2p+2 "
         "0x1.8b4d790d73717p+1 0x1.fc8b7787830c8p-1",
        "-0x1.9ae905f6c24f3p+4 0x1.644aeddb1ee4ep+2 "
         "0x1.4a9584f846f5ap+2 0x1.fea3528405611p-1",
        "-0x1.693df8d0ee2dap+5 0x1.827822a19ea10p+2 "
         "0x1.1029248ab526ap+3 0x1.ff7756164af74p-1",
        "-0x1.3baa3e38d9055p+6 0x1.a0ad7a7b161f2p+2 "
         "0x1.bbb8d92ffe457p+3 0x1.ffca9b9984aeep-1",
        "-0x1.123e250b82b43p+7 0x1.bee602e9a5358p+2 "
         "0x1.677bdabd764d2p+4 0x1.ffeb2e0e8affbp-1",
        "-0x1.d9f6c6cee9141p+7 0x1.dd1fca66a7785p+2 "
         "0x1.221cf7698628cp+5 0x1.fff7e3f25a658p-1",
        "-0x1.9794c56b8b746p+8 0x1.fb5a0e4fe7782p+2 "
         "0x1.d320d88481c30p+5 0x1.fffcd7e9b57f5p-1",
        "-0x1.5cf7af0de0befp+9 0x1.0cca41582c2c9p+3 "
         "0x1.77823e0321132p+6 0x1.fffec5970553ep-1",
        "-0x1.299d8268736c1p+10 0x1.1be784f727811p+3 "
         "0x1.2d9335a4e3914p+7 0x1.ffff85b3738bcp-1",
        "-0x1.f9dc54fb5012bp+10 0x1.2b04cc41af645p+3 "
         "0x1.e41caccc1c03ep+7 0x1.ffffd06f8fdb0p-1",
        "-0x1.ac8e3b01e12d6p+11 0x1.3a2214f9af4c5p+3 "
         "0x1.846cd96f083dep+8 0x1.ffffed80d710ep-1",
        "-0x1.6a08b4716f40bp+12 0x1.493f5e3fd28c9p+3 "
         "0x1.379485a245f39p+9 0x1.fffff8ceb59bdp-1",
        "-0x1.310d9b76553d8p+13 0x1.585ca7bd3c205p+3 "
         "0x1.f3ce058777a0ep+9 0x1.fffffd3408481p-1",
    ),
    ('srt', 3.0, 1.0): (
        "-0x1.afc6f6fd404cbp-33 0x1.496b7c4c688cep-15 "
         "0x1.afc6f6f399696p-33 0x1.496b7c3dae463p-15",
        "-0x1.159f99bb59a59p-31 0x1.0825fdec14624p-14 "
         "0x1.159f99ab63937p-31 0x1.0825fdcdb4e4fp-14",
        "-0x1.650303e1017acp-30 0x1.a79ea7c109986p-14 "
         "0x1.650303ac3754ap-30 0x1.a79ea743c29bap-14",
        "-0x1.cb1a0cca321c8p-29 0x1.53aef7374c73fp-13 "
         "0x1.cb1a0c1b99d2cp-29 0x1.53aef634f00c5p-13",
        "-0x1.273149cc2d4edp-27 0x1.1060dbef54920p-12 "
         "0x1.273148ab73bf9p-27 0x1.1060d9da826bfp-12",
        "-0x1.7b9ad7f43f90cp-26 0x1.b4d177d5b12d5p-12 "
         "0x1.7b9ad439544d2p-26 0x1.b4d16f400221bp-12",
        "-0x1.e827ca466bb22p-25 0x1.5e44474a7616fp-11 "
         "0x1.e827bdf0287d0p-25 0x1.5e4435962ab1cp-11",
        "-0x1.39df926a1e39ap-23 0x1.18dd4e4dcaae8p-10 "
         "0x1.39df7e0361967p-23 0x1.18dd29cadffcbp-10",
        "-0x1.93a09402f6e2cp-22 0x1.c26d4acb46610p-10 "
         "0x1.93a05089bcbeep-22 0x1.c26cb433bb7a2p-10",
        "-0x1.0385ea83d8fecp-20 0x1.692d77431a992p-9 "
         "0x1.03857af0a27bbp-20 0x1.692c40b7093cbp-9",
        "-0x1.4dbbdb3e252bbp-19 0x1.219c541856502p-8 "
         "0x1.4dba6a43ca95fp-19 0x1.2199d3c25447cp-8",
        "-0x1.ad295f776250cp-18 0x1.d0711516f32b2p-8 "
         "0x1.ad249b7a27960p-18 0x1.d066c51a6fb27p-8",
        "-0x1.13eea8f8387aep-16 0x1.74643e8920c00p-7 "
         "0x1.13e6c9024bbcbp-16 0x1.744f0031865d6p-7",
        "-0x1.62ce523482c3cp-15 0x1.2a8daf41bdee7p-6 "
         "0x1.62b4538369f53p-15 0x1.2a62000131324p-6",
        "-0x1.c829ab7ba368ep-14 0x1.de94db6c173b5p-6 "
         "0x1.c7d41da4a051fp-14 0x1.dde1fd39dd082p-6",
        "-0x1.25228e83304afp-12 0x1.7f5197868b642p-5 "
         "0x1.2496ce5b93bf8p-12 0x1.7de7601096f05p-5",
        "-0x1.786a5bb7e1a8fp-11 0x1.327ed5b0b00e6p-4 "
         "0x1.76a9b73fd4a9bp-11 0x1.2fb3a8dbdf1f5p-4",
        "-0x1.e257c55f6c159p-10 0x1.e82e36f5ff6abp-4 "
         "0x1.dceccfc67b2b9p-10 0x1.ddb6c84bb7c7ap-4",
        "-0x1.33962a021d6e9p-8 0x1.8178b2a761fa4p-3 "
         "0x1.2bc754e944750p-8 0x1.6f980f3fc6c17p-3",
        "-0x1.849ac57afe4f1p-7 0x1.2b934d61fc876p-2 "
         "0x1.706381f93809ap-7 0x1.10cf34f8f9702p-2",
        "-0x1.e3068ff2c9766p-6 0x1.c632bf0d8bf1fp-2 "
         "0x1.b5464a873146dp-6 0x1.817064f1ba9eap-2",
        "-0x1.25144372f1d4dp-4 0x1.4d23d39bbc660p-1 "
         "0x1.f05e8e13e27c4p-5 0x1.01333e114a017p-1",
        "-0x1.58f0191e2da6dp-3 0x1.d660304296be0p-1 "
         "0x1.0bdf1b70f4c4dp-3 0x1.43a0266ecfdcbp-1",
        "-0x1.880e07e51aba4p-2 0x1.3f002701cfeacp+0 "
         "0x1.1271fd060f8b5p-2 0x1.80accda3a041ap-1",
        "-0x1.ad93f5f7d756dp-1 0x1.9ff454f998d64p+0 "
         "0x1.0b4b207f618d3p-1 0x1.b216d308bcb4ap-1",
        "-0x1.c5f536b077354p+0 0x1.056fa922e4313p+1 "
         "0x1.f0efdf1da0f60p-1 0x1.d4ebe38594f3ep-1",
        "-0x1.cfa97fece3df0p+1 0x1.3e2f9491cfa1cp+1 "
         "0x1.bbb274e2f6c95p+0 0x1.ea4c70ccdf012p-1",
        "-0x1.cb41207e35b9dp+2 0x1.78d73a443409ap+1 "
         "0x1.7f8430384294cp+1 0x1.f5e16faaaa8b2p-1",
        "-0x1.bae200aee81eap+3 0x1.b47aee956aff2p+1 "
         "0x1.4381d76cdc46fp+2 0x1.fb8d1599e1166p-1",
        "-0x1.a17f8efdc3bdfp+4 0x1.f095c46abc159p+1 "
         "0x1.0c32580fbb7b5p+3 0x1.fe1fe4e476974p-1",
        "-0x1.82277e6039cdep+5 0x1.1672ac2837647p+2 "
         "0x1.b777a8f0eff7ap+3 0x1.ff3b53bbf19b8p-1",
        "-0x1.5f8f8e8817dcfp+6 0x1.34a59e68e4b7ap+2 "
         "0x1.6542b300bdfe5p+4 0x1.ffb0f177ac6c4p-1",
        "-0x1.3be34e9311946p+7 0x1.52dd2507cfe9ap+2 "
         "0x1.20f87339311b2p+5 0x1.ffe09b981eafcp-1",
        "-0x1.18bd4941f54ffp+8 0x1.7116836be4fbap+2 "
         "0x1.d1f7441300df6p+5 0x1.fff3a1ad399d8p-1",
        "-0x1.ee6da9396d5c3p+8 0x1.8f509d42eb6bep+2 "
         "0x1.76ebd9e2c2f7dp+6 0x1.fffb269f10a08p-1",
        "-0x1.b00098eac70a1p+9 0x1.ad8b00fb92880p+2 "
         "0x1.2d4782a572805p+7 0x1.fffe1ad1a05edp-1",
        "-0x1.76f3c613fd27ep+10 0x1.cbc581ad0f866p+2 "
         "0x1.e3d0a8f4dd00fp+7 0x1.ffff42bd9ae9ap-1",
        "-0x1.4392ffe9a8790p+11 0x1.ea000db1bbbe6p+2 "
         "0x1.8446be38a9b83p+8 0x1.ffffb64382bb8p-1",
        "-0x1.15d91c3172279p+12 0x1.041d4f10b4a32p+3 "
         "0x1.3781702012468p+9 0x1.ffffe34b3cd1ep-1",
        "-0x1.db1713c5433a1p+12 0x1.133a9824e0bdbp+3 "
         "0x1.f3baeb161dc33p+9 0x1.fffff4d46e61fp-1",
    ),
    ('srt', 3.0, 0.001): (
        "-0x1.c2e88206cac6fp-25 0x1.57f87afe9e528p-7 "
         "0x1.c2ca45ae26e9cp-25 0x1.57ca6565f7793p-7",
        "-0x1.21dd5cc2b89c5p-23 0x1.13b3f2568d6b6p-6 "
         "0x1.21ab89735bbaep-23 0x1.1355672d3da6ep-6",
        "-0x1.748ec32f774e4p-22 0x1.b9b000672c242p-6 "
         "0x1.73eb6ca2ec351p-22 0x1.b82f26aab53e6p-6",
        "-0x1.de748de0874a4p-21 0x1.613d34d1b7eb1p-5 "
         "0x1.dc6400c9b2febp-21 0x1.5e3ca4cf151fcp-5",
        "-0x1.329eadd879212p-19 0x1.196d041e0e2d4p-4 "
         "0x1.2f603498be08ep-19 0x1.13acc843a2ca5p-4",
        "-0x1.87337322731c4p-18 0x1.bca1350f9a394p-4 "
         "0x1.7d95dbebf3509p-18 0x1.a846856794953p-4",
        "-0x1.ee588c74cefaep-17 0x1.596f73e2f8878p-3 "
         "0x1.d47f891b73584p-17 0x1.39a1af873fa0ap-3",
        "-0x1.32f2356c478bap-15 0x1.0512ebe592469p-2 "
         "0x1.14913abea0a47p-15 0x1.b56704e1ffd91p-3",
        "-0x1.731dba78ad3d4p-14 0x1.7bf92ae3d889cp-2 "
         "0x1.35dee33a6c842p-14 0x1.1cb97e38704eap-2",
        "-0x1.b16277c36a707p-13 0x1.08ad11e4bc252p-1 "
         "0x1.475778ba5038dp-13 0x1.5a7c8bef1a112p-2",
        "-0x1.e6b0f07e75a0dp-12 0x1.60d7839b85acep-1 "
         "0x1.467fbb932ebbcp-12 0x1.8e3f795a0e94bp-2",
        "-0x1.06b4c652807cap-10 0x1.c3dc29ed625d7p-1 "
         "0x1.35a40f6d0829fp-11 0x1.b67292db9ad94p-2",
        "-0x1.115ba9288d1acp-9 0x1.17924de3c2c2cp+0 "
         "0x1.19dba13869789p-10 0x1.d4ad0b56d7caep-2",
        "-0x1.13539c7886506p-8 0x1.5057be17871ddp+0 "
         "0x1.f153856aa24e1p-10 0x1.ec08309667129p-2",
        "-0x1.0db3c8b7c9e3dp-7 0x1.8ba3fe1fa8afcp+0 "
         "0x1.ad112a706ff85p-9 0x1.0009e6703d634p-1",
        "-0x1.02257f034a2aap-6 0x1.c94ab6a31c6dep+0 "
         "0x1.6cede03d0d27fp-8 0x1.0a438b834003bp-1",
        "-0x1.e4f2f22c4d66bp-6 0x1.04c9a49ba41d8p+1 "
         "0x1.343dd9efabdcfp-7 0x1.16acc3a3c1f76p-1",
        "-0x1.c0c2989f6a3c2p-5 0x1.26a0a59051acdp+1 "
         "0x1.045b8ed056469p-6 0x1.275f7426cde4ap-1",
        "-0x1.9a91def62ea50p-4 0x1.4ac8ce9d613dbp+1 "
         "0x1.ba8336019f19fp-6 0x1.3e23f5335e622p-1",
        "-0x1.7489e5d50cef2p-3 0x1.72048eb9992ccp+1 "
         "0x1.7bd4f99d2e998p-5 0x1.5b5c55fdf67dap-1",
        "-0x1.50197ffa496aep-2 0x1.9cfed137a1708p+1 "
         "0x1.493b1adb70672p-4 0x1.7d04439584f61p-1",
        "-0x1.2e006d3f08264p-1 0x1.cc04fce003638p+1 "
         "0x1.1ecfe00ab6f2dp-3 0x1.9f2d55c17a074p-1",
        "-0x1.0e763bbb4f09bp+0 0x1.fee7ec3eda3fap+1 "
         "0x1.f2c152ff43978p-3 0x1.bdddb4aa19d24p-1",
        "-0x1.e2c68116b2815p+0 0x1.1a89c7a7caa16p+2 "
         "0x1.ae2b6c1d7e3bdp-2 0x1.d6841aad0cf24p-1",
        "-0x1.ad29a3b177379p+1 0x1.36dff0df9c738p+2 "
         "0x1.6ea6f1dcf1802p-1 0x1.e83c4d1870faep-1",
        "-0x1.7bbaa0d860403p+2 0x1.54102fc89c428p+2 "
         "0x1.34726105e59a4p+0 0x1.f390297c3fdcbp-1",
        "-0x1.4e3fa6f53a680p+3 0x1.71c47609d1882p+2 "
         "0x1.0048f41ccaa33p+1 0x1.f9fff3c73d106p-1",
        "-0x1.249ce494d8ea9p+4 0x1.8fc02cfd8a5d5p+2 "
         "0x1.a575ca9cd8459p+1 0x1.fd4a553b31814p-1",
        "-0x1.fd8a2fa4e4921p+4 0x1.addf0037821ffp+2 "
         "0x1.57c3ecacb800cp+2 0x1.fed5d8fc0ecb2p-1",
        "-0x1.b953573153e49p+5 0x1.cc0dd672572c7p+2 "
         "0x1.16c5d2b71a400p+3 0x1.ff843937695cep-1",
        "-0x1.7c6148ff29a03p+6 0x1.ea43979068177p+2 "
         "0x1.c257bde020fc9p+3 0x1.ffcdcdce6c51cp-1",
        "-0x1.46628d8495465p+7 0x1.043e1ced9dd50p+3 "
         "0x1.6acbbc94a43e8p+4 0x1.ffebf41a8e382p-1",
        "-0x1.16eaee34adf5bp+8 0x1.135b03c59da66p+3 "
         "0x1.23c4fdbe7161bp+5 0x1.fff812a49f88ep-1",
        "-0x1.daf58fc875f2dp+8 0x1.22782672ffc75p+3 "
         "0x1.d4c8e6d598889p+5 0x1.fffce288c72e6p-1",
        "-0x1.930ec9fb6ddd3p+9 0x1.319560cc68de5p+3 "
         "0x1.78564698544f3p+6 0x1.fffec7dd2bb32p-1",
        "-0x1.5504f0e8b7018p+10 0x1.40b2a473e0b65p+3 "
         "0x1.2dfd3a2b7a8c6p+7 0x1.ffff86217cb0fp-1",
        "-0x1.1fbff8cdac178p+11 0x1.4fcfebbfde258p+3 "
         "0x1.e486b1630e5fcp+7 0x1.ffffd07df9031p-1",
        "-0x1.e46977eab33ffp+11 0x1.5eed3477fc793p+3 "
         "0x1.84a1dbbb7e058p+8 0x1.ffffed7f89bc2p-1",
        "-0x1.96d4aed62f19dp+12 0x1.6e0a7dbe0fa01p+3 "
         "0x1.37af06c80240cp+9 0x1.fffff8cc86670p-1",
        "-0x1.54fa50253e4f9p+13 0x1.7d27c73b6c288p+3 "
         "0x1.f3e886ac94ff7p+9 0x1.fffffd32c68b0p-1",
    ),
    ('qed', 0.01, 10000.0): (
        "-0x1.f3ca802e39dbcp-73 0x1.7d4f6ef147c0ap-54 "
         "0x1.76d7e02a8ce66p-71 0x1.1dfb933dfaaacp-52",
        "-0x1.9d3f9d75b7417p-70 0x1.8930cc648d708p-52 "
         "0x1.35efb6290bce4p-68 0x1.26e4996355434p-50",
        "-0x1.55b1033bfbb03p-67 0x1.9570ec3a7dcb3p-50 "
         "0x1.0044c290a0842p-65 0x1.3014b16b4d4f2p-48",
        "-0x1.1a8669b218513p-64 0x1.a212c291ec287p-48 "
         "0x1.a7c99f22b9070p-63 0x1.398e1295ab99ep-46",
        "-0x1.d3351f266b290p-62 0x1.af195b9c61e71p-46 "
         "0x1.5e67d89f28e69p-60 0x1.435306736fbf8p-44",
        "-0x1.824e9ec51c07ap-59 0x1.bc87dd37e9d3dp-44 "
         "0x1.21baf9c152a14p-57 0x1.4d65ea892538ep-42",
        "-0x1.3f6a4f63b47e5p-56 0x1.ca6189fd6bab1p-42 "
         "0x1.df1f82790befap-55 0x1.57c933bfffee8p-40",
        "-0x1.081b3b656c2f0p-53 0x1.d8a9c8219d05fp-40 "
         "0x1.8c28f150247dfp-52 0x1.627f769b32981p-38",
        "-0x1.b4bfefddb577bp-51 0x1.e764326f86585p-38 "
         "0x1.47902767260bbp-49 0x1.6d8b7c0a38d74p-36",
        "-0x1.692016089a940p-48 0x1.f694c402c5440p-36 "
         "0x1.0ed87e0daaa59p-46 0x1.78f077a836387p-34",
        "-0x1.2a99204f66816p-45 0x1.0320257687690p-33 "
         "0x1.bfe78255558a7p-44 0x1.84b296a248f34p-32",
        "-0x1.edce49735e971p-43 0x1.0b36cb844500ap-31 "
         "0x1.725e95f3a0479p-41 0x1.90d879ef28cfap-30",
        "-0x1.9856c754671fcp-40 0x1.13944e5d65811p-29 "
         "0x1.3249518800d27p-38 0x1.9d6f2233cd376p-28",
        "-0x1.51b7391553a04p-37 0x1.1c4565f699dfbp-27 "
         "0x1.fab5e530df27cp-36 0x1.aa946224368e1p-26",
        "-0x1.176a7e4ca24c2p-34 0x1.2568affc70390p-25 "
         "0x1.a36a8288ec382p-33 0x1.b892ec322fa84p-24",
        "-0x1.ced3fcc2495d9p-32 0x1.2f4cf7b1e300ep-23 "
         "0x1.5bbf295137a76p-30 0x1.c82f2da97379ep-22",
        "-0x1.8053f86cae955p-29 0x1.3ac680b52331dp-21 "
         "0x1.219a34f3ccda9p-27 0x1.db84fd029b191p-20",
        "-0x1.4165c52759076p-26 0x1.4a3816e7f8fe4p-19 "
         "0x1.e82d58f6578d9p-25 0x1.f8e4a311db8adp-18",
        "-0x1.127aa3823dbdbp-23 0x1.670501b160938p-17 "
         "0x1.ac72698b497e2p-22 0x1.21e9a55dc6fffp-15",
        "-0x1.3f457af15fa83p-20 0x1.8fed3f71fa6ffp-14 "
         "0x1.a977917cbb8c4p-18 0x1.6ae3414307933p-11",
        "-0x1.c9eba6b94395fp-15 0x1.d203448890c26p-9 "
         "0x1.9ee1201e2d2eap-12 0x1.86c3cb4452f7ap-6",
        "-0x1.8e1646d9192d2p-10 0x1.66afec606baa9p-5 "
         "0x1.e33fe3d4f2c0dp-8 0x1.6d99bc5b1d7f0p-3",
        "-0x1.fc9d700a3f47dp-7 0x1.92554c6fee8b8p-3 "
         "0x1.8d025f4693181p-5 0x1.e8dec7bf874d0p-2",
        "-0x1.54039c60b55fap-4 0x1.f33406ca478eap-2 "
         "0x1.5f7ebe637f750p-3 0x1.790a282535769p-1",
        "-0x1.33cb2fff5cb5cp-2 0x1.bf12d20530a6cp-1 "
         "0x1.b9369948eb855p-2 0x1.c2107e069750bp-1",
        "-0x1.b7ae71f9f3c5bp-1 0x1.4e18590ba4336p+0 "
         "0x1.c9f7016d75098p-1 0x1.e142a56a18586p-1",
        "-0x1.0e7e4cd661e79p+1 0x1.c130eca31a9aap+0 "
         "0x1.aac42522fc374p+0 0x1.eb08d5c10206ap-1",
        "-0x1.2da77d96fbad6p+2 0x1.1a96d21b3be67p+1 "
         "0x1.751139f7e3d1fp+1 0x1.e9db9685b56fbp-1",
        "-0x1.3a60c710cf390p+3 0x1.540031d470b0ap+1 "
         "0x1.3938305782f7bp+2 0x1.e171670a22113p-1",
        "-0x1.380e1a61b6925p+4 0x1.8c06009afa9a2p+1 "
         "0x1.ff5be5a1d70edp+2 0x1.d247e36222becp-1",
        "-0x1.2a9ded5cf320cp+5 0x1.c1d693ae1a712p+1 "
         "0x1.9832479cb9f40p+3 0x1.bc078ccc74509p-1",
        "-0x1.15b16ec439f71p+6 0x1.f4a2cc1c9d684p+1 "
         "0x1.3f75925e46560p+4 0x1.9f7e6343b0230p-1",
        "-0x1.f8aa584f418a0p+6 0x1.11ea9b1817ec6p+2 "
         "0x1.eb43495ca8a71p+4 0x1.7fb94923ad8fap-1",
        "-0x1.c1f3c9d056aadp+7 0x1.27a745f81c1f5p+2 "
         "0x1.74829ba1f12c9p+5 0x1.61312f90075ccp-1",
        "-0x1.8afac8ffeb717p+8 0x1.3bb94691370c4p+2 "
         "0x1.183958606797ep+6 0x1.47c59e5c42601p-1",
        "-0x1.5667f9476e4c1p+9 0x1.4e7fd392b7035p+2 "
         "0x1.a54c968d1cd51p+6 0x1.3585b9fc7059ep-1",
        "-0x1.25ec25c42ec27p+10 0x1.606c9e9e66809p+2 "
         "0x1.3ebe462e2712cp+7 0x1.2af75404fc2bdp-1",
        "-0x1.f4d5a6ddcb3e7p+10 0x1.71f3a9df99c68p+2 "
         "0x1.e86ad33e25f27p+7 0x1.280cda8cbd7d5p-1",
        "-0x1.a85d243b5ce28p+11 0x1.838902a5d79e1p+2 "
         "0x1.7cd64b121d4d8p+8 0x1.2ceb506b52392p-1",
        "-0x1.66377794c1457p+12 0x1.95a5d2977e377p+2 "
         "0x1.2f63c0997fe5cp+9 0x1.3a0fe17ce015bp-1",
    ),
    ('qed', 1.0, 1000000.0): (
        "-0x1.867633d64c560p-66 0x1.29e60e6c6f1d0p-47 "
         "0x1.24d8a6e0b9401p-64 0x1.bed915a2a6aa8p-46",
        "-0x1.42d9b2b39e8cep-63 0x1.332e1f55a70f9p-45 "
         "0x1.e4468c0d6dd17p-62 0x1.ccc52f007a94fp-44",
        "-0x1.0af24a2264a71p-60 0x1.3cc037f571e62p-43 "
         "0x1.906b6f3396f6fp-59 0x1.db2053f02ad2ap-42",
        "-0x1.b97203ef5fcecp-58 0x1.469ea6c45a43ep-41 "
         "0x1.4b1582f387d35p-56 0x1.e9edfa2687549p-40",
        "-0x1.6d017e211dfc9p-55 0x1.50cbcca090a72p-39 "
         "0x1.11c11e98d66cep-53 0x1.f931b2f0d8cd1p-38",
        "-0x1.2dcd67a8487cap-52 0x1.5b4a1d60a7e42p-37 "
         "0x1.c4b41b7c6c74bp-51 0x1.047796087dae8p-35",
        "-0x1.f31609ec9d36ep-50 0x1.661c206ae3ffep-35 "
         "0x1.765087717553ep-48 0x1.0c9518502a5f3p-33",
        "-0x1.9caa66b1c0ae4p-47 0x1.714471513fafep-33 "
         "0x1.357fcd054f452p-45 0x1.14f354fcee19dp-31",
        "-0x1.5535a2b2c2334p-44 0x1.7cc5c0724dc11p-31 "
         "0x1.ffd0740c1e067p-43 0x1.1d945055b5e69p-29",
        "-0x1.1a2065e4f8f05p-41 0x1.88a2d39f1c658p-29 "
         "0x1.a73098d76a2f1p-40 0x1.267a1eb749939p-27",
        "-0x1.d28c6a4c27136p-39 0x1.94de86c63fe62p-27 "
         "0x1.5de94fb90557dp-37 0x1.2fa6e51490a21p-25",
        "-0x1.81c31d1d11495p-36 0x1.a17bcca426332p-25 "
         "0x1.215255d598a76p-34 0x1.391cd97ac6018p-23",
        "-0x1.3ef6eedad98bep-33 0x1.ae7daf78ac42cp-23 "
         "0x1.de72664741b13p-32 0x1.42de43995b08ap-21",
        "-0x1.07bbc685b4b5ep-30 0x1.bbe751bfaa340p-21 "
         "0x1.8b99a9c44b839p-29 0x1.4ced7d4848d7bp-19",
        "-0x1.b421d5e9388e0p-28 0x1.c9bbeec3d5250p-19 "
         "0x1.471960484eaf6p-26 0x1.574cf2b19041dp-17",
        "-0x1.689cd552c2792p-25 0x1.d7fed846b1553p-17 "
         "0x1.0e759e0c56594p-23 0x1.61ff1be2e83aep-15",
        "-0x1.2a2b6c203f6c1p-22 0x1.e6b340b3698a9p-15 "
         "0x1.bf40ec401ca97p-21 0x1.6d060297e3eb7p-13",
        "-0x1.ed1249786f62fp-20 0x1.f5d881ce4b2c9p-13 "
         "0x1.71cac46f1815ap-18 0x1.785ae548c9eaap-11",
        "-0x1.9797d9873e0dbp-17 0x1.0295dd052d676p-10 "
         "0x1.318a335e7153bp-15 0x1.8365cf9f2f71cp-9",
        "-0x1.4fdd41fbf22d2p-14 0x1.088cd534a712cp-8 "
         "0x1.f48e646f450ddp-13 0x1.872bc59c95811p-7",
        "-0x1.0da36eed6d8cdp-11 0x1.014cd038a3b6bp-6 "
         "0x1.828637dcfc362p-10 0x1.623462682aee1p-5",
        "-0x1.878b5e535efe5p-9 0x1.ab4d7aa910959p-5 "
         "0x1.f27b21e20b3bep-8 0x1.ea39994884c03p-4",
        "-0x1.d4e2ae7f82cdfp-7 0x1.14c317c66398ep-3 "
         "0x1.e6b1700332126p-6 0x1.e14af023df0d6p-3",
        "-0x1.bff16960b0b21p-5 0x1.17f1b0a65f912p-2 "
         "0x1.68ed25539da0ap-4 0x1.62600cb0fb6bcp-2",
        "-0x1.5e5a62f8f6589p-3 0x1.d35ca4839a564p-2 "
         "0x1.b0a4e5ac8b2abp-3 0x1.b09b7612837a7p-2",
        "-0x1.d57e7d76678e1p-2 0x1.558259f4a32a2p-1 "
         "0x1.c012839ddb253p-2 0x1.dbb3dcacc525dp-2",
        "-0x1.18de3d99b4754p+0 0x1.c89cdec2313eap-1 "
         "0x1.a60192be54e4ep-1 0x1.f065ded548a0fp-2",
        "-0x1.359f8d0be305dp+1 0x1.1f898c37899d2p+0 "
         "0x1.7639c88a6c415p+0 0x1.f98c25b46148fp-2",
        "-0x1.41988258c4e31p+2 0x1.5b7e4bf9a89ecp+0 "
         "0x1.3f8ad8deed6b9p+1 0x1.fd65a6fd2a48dp-2",
        "-0x1.3faedbf14193fp+3 0x1.97c015d7a129ep+0 "
         "0x1.0a79be0a1aba8p+2 0x1.fef87a2b0cb29p-2",
        "-0x1.33796d2bf8b34p+4 0x1.d42125123d9fbp+0 "
         "0x1.b5ef220534f43p+2 0x1.ff9af3d7e29bdp-2",
        "-0x1.205c17bc35f81p+5 0x1.08476a92ce77ap+1 "
         "0x1.648fa6edfdeb3p+3 0x1.ffdd158ce7290p-2",
        "-0x1.0928a1a018124p+6 0x1.2680e32a55656p+1 "
         "0x1.20a5dfd1ad730p+4 0x1.fff9f41a894a4p-2",
        "-0x1.e013a5b33ccd5p+6 0x1.44bb9b046292ep+1 "
         "0x1.d1ac8d8116ea1p+4 0x1.0004ecd4b631cp-1",
        "-0x1.ad228d83b5628p+7 0x1.62f7287896919p+1 "
         "0x1.76cd60ae325a3p+5 0x1.000bb6cca2235p-1",
        "-0x1.7ba3973cf6954p+8 0x1.813397afe7d76p+1 "
         "0x1.2d4018da72731p+6 0x1.001445fdeddb2p-1",
        "-0x1.4cf6d9b0d07afp+9 0x1.9f71435c83f9cp+1 "
         "0x1.e3dcb7f4df5aep+6 0x1.0021179351709p-1",
        "-0x1.21e90cd3a580bp+10 0x1.bdb0d8c4ba6a8p+1 "
         "0x1.84659bb022d26p+7 0x1.00354bbc823f0p-1",
        "-0x1.f5b9a15782828p+10 0x1.dbf378a4d9420p+1 "
         "0x1.37b0be8b84524p+8 0x1.00558f22f322cp-1",
        "-0x1.afd60f569aa84p+11 0x1.fa3af642c1bdcp+1 "
         "0x1.f43c2934b4580p+8 0x1.00893f0a80ab2p-1",
    ),
    ('qed', 1e-06, 0.001): (
        "-0x1.85bb0ff317538p-66 0x1.29102f2ea0238p-47 "
         "0x1.23ef1c4d728c2p-64 0x1.bcc3926ef755cp-46",
        "-0x1.414e454dd21d4p-63 0x1.30fbb9c441b2bp-45 "
         "0x1.e06e1688e5e68p-62 0x1.c74ef1487d1a1p-44",
        "-0x1.07b6c1dbcb398p-60 0x1.370bf7c4b1730p-43 "
         "0x1.886be7a9cfab7p-59 0x1.cd0f2d794fe56p-42",
        "-0x1.ac381eee782bfp-58 0x1.383cfe36208bcp-41 "
         "0x1.3af403084957ep-56 0x1.c71bc8261a846p-40",
        "-0x1.533ae1560f572p-55 0x1.2eae6efb17643p-39 "
         "0x1.e673d0da11c47p-54 0x1.a98f3b69265efp-38",
        "-0x1.ffa5a43cc11cfp-53 0x1.128253c44c41cp-37 "
         "0x1.5d3284a2ff528p-51 0x1.6907bf461d139p-36",
        "-0x1.6338c3f06d433p-50 0x1.c06b2c7fc8817p-36 "
         "0x1.bf55ebc146f24p-49 0x1.09ed344b7aa22p-34",
        "-0x1.b849ac4798d33p-48 0x1.409ad500c60d2p-34 "
         "0x1.f06c9311e9f4ep-47 0x1.4ca731a46b1f3p-33",
        "-0x1.dfbb96c8813c2p-46 0x1.8ed6719c9158dp-33 "
         "0x1.daedd532b2483p-45 0x1.64f8baae6d804p-32",
        "-0x1.cd3a6c5c2d18ap-44 0x1.b61109dd7e114p-32 "
         "0x1.8eed3d36813cdp-43 0x1.53d99c19627f4p-31",
        "-0x1.8df9a59acec0dp-42 0x1.b3c90b1e33b1ep-31 "
         "0x1.2f2fd5c52dc87p-41 0x1.2ab48b8423917p-30",
        "-0x1.3b118c5a040d0p-40 0x1.93320821bcf0cp-30 "
         "0x1.ae0cff0d22b74p-40 0x1.f5273a7c3e882p-30",
        "-0x1.d3a11cbb89f8cp-39 0x1.62caee00b62e6p-29 "
         "0x1.23f09fdd5086fp-38 0x1.9a4d408098505p-29",
        "-0x1.4b3e01f2dd478p-37 0x1.2df2ed73716e5p-28 "
         "0x1.825663d1e573ap-37 0x1.4c1556c2e1d76p-28",
        "-0x1.c6479120d0f53p-36 0x1.f6f8b9428bdcap-28 "
         "0x1.f8309d96ea9cep-36 0x1.0b81807b22a9fp-27",
        "-0x1.30bdcadecf44ap-34 0x1.9d4aa615bd397p-27 "
         "0x1.46c8434bc53b7p-34 0x1.ae8f261636ae5p-27",
        "-0x1.930fe8a867140p-33 0x1.50fcbdbef5d52p-26 "
         "0x1.a6bcd3cc90c28p-33 0x1.5b55582702c0ep-26",
        "-0x1.0859244c2949cp-31 0x1.120c5d914b504p-25 "
         "0x1.1227226ac1931p-31 0x1.1aaaf30cba686p-25",
        "-0x1.6e63e1c90de32p-30 0x1.6a618401d39a8p-24 "
         "0x1.83c9a52cad2eap-29 0x1.6c89f09b37900p-21",
        "-0x1.0fcd208ce07b6p-22 0x1.6b58b01ed85a1p-15 "
         "0x1.a917b425b3adfp-19 0x1.0a0d973936985p-11",
        "-0x1.8b5e5eb8e159dp-15 0x1.b1ff4cf8c4de3p-9 "
         "0x1.86436ae0a1362p-12 0x1.7c5dd610044b8p-6",
        "-0x1.8483ef1ff94f6p-10 0x1.6335e6de1ea52p-5 "
         "0x1.dffe6d65376c9p-8 0x1.6e53c30d29810p-3",
        "-0x1.fb275a4be9f37p-7 0x1.9354823a25400p-3 "
         "0x1.8eac621ce2eaep-5 0x1.eca1f06f7bf2fp-2",
        "-0x1.5537d6bf46642p-4 0x1.f649b256473b4p-2 "
         "0x1.621d92d70792ap-3 0x1.7c95b00c69293p-1",
        "-0x1.35b9ac8f4b39dp-2 0x1.c2ac0c00ac899p-1 "
         "0x1.bd4f7e6e2107dp-2 0x1.c74b7a151eef0p-1",
        "-0x1.bb3d50dd213e7p-1 0x1.5166db4044857p+0 "
         "0x1.cf4a887be8f7ap-1 0x1.e8ffc6b9928a1p-1",
        "-0x1.11303dc456caap+1 0x1.c6c5e5b0e1e80p+0 "
         "0x1.b166e43a84911p+0 0x1.f6e7e85c8b441p-1",
        "-0x1.3164c84fe6986p+2 0x1.1f25a73df34c3p+1 "
         "0x1.7d562ca31676cp+1 0x1.fc70d8a25cdfep-1",
        "-0x1.3f59b2f67ed90p+3 0x1.5b551aaeb2230p+1 "
         "0x1.439657cc304ebp+2 0x1.fe9cd243e3967p-1",
        "-0x1.3e846fd933326p+4 0x1.97af1b2b4869fp+1 "
         "0x1.0ca8ddd582c4ap+3 0x1.ff75c3412cc5ep-1",
        "-0x1.32e07f0d2d94dp+5 0x1.d419b1834fc36p+1 "
         "0x1.b8384e55da0dep+3 0x1.ffca3ad7412bep-1",
        "-0x1.200e325191951p+6 0x1.08455e2703ca9p+2 "
         "0x1.65bb883b838a6p+4 0x1.ffeb16ffcc0cap-1",
        "-0x1.0900e789e8c08p+7 0x1.267f24eb613aep+2 "
         "0x1.213ccbaac2f71p+5 0x1.fff7de7e5c95ap-1",
        "-0x1.dfea952309a2fp+7 0x1.44b968a9079bep+2 "
         "0x1.d240abd43e4f1p+5 0x1.fffcd6a01a0e2p-1",
        "-0x1.ad0c81714b117p+8 0x1.62f3dcff1dae9p+2 "
         "0x1.7712277cf870dp+6 0x1.fffec5474ac25p-1",
        "-0x1.7b96ae503d750p+9 0x1.812e643a7f828p+2 "
         "0x1.2d5b2a58938b7p+7 0x1.ffff859e1fbecp-1",
        "-0x1.4cedfca4454a9p+10 0x1.9f68f2cecf06dp+2 "
         "0x1.e3e4a17b734ddp+7 0x1.ffffd06851a89p-1",
        "-0x1.21e18653cd4dep+11 0x1.bda3843e84271p+2 "
         "0x1.8450d3c554f7ep+8 0x1.ffffed7d783a2p-1",
        "-0x1.f5aa25d2d7d30p+11 0x1.dbde16caa3e30p+2 "
         "0x1.378682ccd8fdep+9 0x1.fffff8ccc297bp-1",
        "-0x1.afc415748fed7p+12 0x1.fa18a9c55f882p+2 "
         "0x1.f3c002b17aec3p+9 0x1.fffffd32ce15fp-1",
    ),
    ('qed', 3.0, 0.001): (
        "-0x1.179781f293ef5p-44 0x1.aa393eb43f2b1p-26 "
         "0x1.a2dd289a14b50p-43 0x1.3f11e29397692p-24",
        "-0x1.cd00fc3a72fe4p-42 0x1.b594e42310238p-24 "
         "0x1.58a72df6d8810p-40 0x1.46a0999d2004ap-22",
        "-0x1.7a5d282235744p-39 0x1.be445b73f878ep-22 "
         "0x1.1981d2feaa55ap-37 0x1.4abc5583dd2ebp-20",
        "-0x1.332da52a541bep-36 0x1.bff1756196501p-20 "
         "0x1.c3d4f56e43de4p-35 0x1.466daa988be3dp-18",
        "-0x1.e6a1af46a0dedp-34 0x1.b22a52a7d4a25p-18 "
         "0x1.5cdf6b1d6eb16p-32 0x1.312995a57c0a4p-16",
        "-0x1.6ee8467ab5b6bp-31 0x1.89a5c7bcd9c58p-16 "
         "0x1.f4b934d2e1a3bp-30 0x1.02ca28b3c45d5p-14",
        "-0x1.fd4deb33664a9p-29 0x1.41647ea9e1517p-14 "
         "0x1.409698fc33752p-27 0x1.7d0bab71f8cd1p-13",
        "-0x1.3b82616855856p-26 0x1.cb5d6e005621ap-13 "
         "0x1.6398eb2c606b9p-25 0x1.dc68960429aa5p-12",
        "-0x1.57a1fd6097488p-24 0x1.1d9afce303d27p-11 "
         "0x1.540b6b6b4fd0fp-23 0x1.ff0195432d1bep-11",
        "-0x1.4a4089b7be490p-22 0x1.3994f04a2dd3ap-10 "
         "0x1.1d84df3462c9ap-21 0x1.e65510035f60ap-10",
        "-0x1.1cde8c9f35b25p-20 0x1.37db709a73af0p-9 "
         "0x1.b1dd2c41f0397p-20 0x1.ab588f167918ap-9",
        "-0x1.c2edd54e14964p-19 0x1.2076ce193d0a6p-8 "
         "0x1.33a092051bd04p-18 0x1.6666a12d7e4eap-8",
        "-0x1.4e8e25fe5e9bbp-17 0x1.fb891ee5d2443p-8 "
         "0x1.a18b2bdcde1b8p-17 0x1.254e504b9e329p-7",
        "-0x1.d9d1a5c24346fp-16 0x1.afc3212397fcap-7 "
         "0x1.14216e3eb40fdp-15 0x1.da53ebd34a7a2p-7",
        "-0x1.44bd83a51f881p-14 0x1.67493cd6a5ddbp-6 "
         "0x1.67eb8edecd9cdp-14 0x1.7d2c7164cbd6bp-6",
        "-0x1.b331ecbc4b14fp-13 0x1.26995f7a94288p-5 "
         "0x1.d11eb5f0cba13p-13 0x1.30e58a565e68cp-5",
        "-0x1.1f059db16b0d1p-11 0x1.dde659a04d356p-5 "
         "0x1.2a889b84ccc0fp-11 0x1.e47db1caaf40ap-5",
        "-0x1.75fd0e2f005d8p-10 0x1.7fa7823241101p-4 "
         "0x1.7be30b530697fp-10 0x1.7bd21964da8bbp-4",
        "-0x1.e18bea925990ap-9 0x1.2fdc7f23d6f86p-3 "
         "0x1.dc01cc1e75e30p-9 0x1.223dbfa71aadcp-3",
        "-0x1.3163d0616d810p-7 0x1.d79364eb05daap-3 "
         "0x1.226b64963f439p-7 0x1.a9ac9e8862e4ep-3",
        "-0x1.7b42f56c69ebbp-6 0x1.636e11b9f6eabp-2 "
         "0x1.54e9df6f3b5e9p-6 0x1.27f5247a2ee87p-2",
        "-0x1.ca0ef8e2dddb6p-5 0x1.027dcfe9c57fcp-1 "
         "0x1.7de6b9c3ceeecp-5 0x1.855fef035ed5bp-2",
        "-0x1.0bb92e2b68b75p-3 0x1.6a0ad13489dfcp-1 "
         "0x1.97e584f494f1bp-4 0x1.e82115a09e9f0p-2",
        "-0x1.2e6cb0c514e98p-2 0x1.e92c04cd38da7p-1 "
         "0x1.a13247ece0793p-3 0x1.2637dfcdc19c0p-1",
        "-0x1.4a7864c874b5bp-1 0x1.3fdf41eb098c2p+0 "
         "0x1.9adbb6085a421p-2 0x1.56ddd44b054c3p-1",
        "-0x1.5e18c58dcb7acp+0 0x1.962aec6a88a81p+0 "
         "0x1.8718e3b4fb733p-1 0x1.82eb076aebadbp-1",
        "-0x1.686dc4255780cp+1 0x1.f60a84167ed57p+0 "
         "0x1.68c1d59f57478p+0 0x1.a7a268c519774p-1",
        "-0x1.697037f977f9fp+2 0x1.2ecb943908ba5p+1 "
         "0x1.435034836d640p+1 0x1.c3e4fd113b795p-1",
        "-0x1.61e10dd9f1838p+3 0x1.656df3e3dd39ap+1 "
         "0x1.1a80fb5a5ca49p+2 0x1.d844c6c5e7df4p-1",
        "-0x1.531d60aa4330fp+4 0x1.9e1378e081286p+1 "
         "0x1.e3548a1e3407dp+2 0x1.e642def1c73f8p-1",
        "-0x1.3eda8ccf754abp+5 0x1.d814dbf3ecc07p+1 "
         "0x1.967f2175d0ccep+3 0x1.ef8d35ba61d9fp-1",
        "-0x1.26dff99f22b5ep+6 0x1.097d4f6bee81bp+2 "
         "0x1.516ac047345c6p+4 0x1.f5950af647b13p-1",
        "-0x1.0cd11d4ab2421p+7 0x1.2739c4e9061cap+2 "
         "0x1.1552fcd1ba998p+5 0x1.f9708b8c464e7p-1",
        "-0x1.e41c4f6a24de7p+7 0x1.452512196e55dp+2 "
         "0x1.c490cef1ff8e7p+5 0x1.fbe244b9299edp-1",
        "-0x1.af51308f5ca4ap+8 0x1.632df70f48af5p+2 "
         "0x1.6f55bc34ea27fp+6 0x1.fd6c63dc1515fp-1",
        "-0x1.7ccae21e05b15p+9 0x1.814976c1ecd2dp+2 "
         "0x1.290a41023c8fdp+7 0x1.fe63b341edb10p-1",
        "-0x1.4d8dbe254fd7cp+10 0x1.9f709f86ef821p+2 "
         "0x1.df20bb08de6e6p+7 0x1.fefe85212f466p-1",
        "-0x1.22319840f9128p+11 0x1.bd9f139cdb64ep+2 "
         "0x1.81b54b0c219d4p+8 0x1.ff5f4bcec02fap-1",
        "-0x1.f5f62d9b41db8p+11 0x1.dbd21665619ecp+2 "
         "0x1.361bec8632e96p+9 0x1.ff9bbbd843644p-1",
        "-0x1.afe4af2accc8fp+12 0x1.fa07f1954e0e7p+2 "
         "0x1.f23896080b899p+9 0x1.ffc174b428435p-1",
    ),
    ('qed', 0.3, 1000000000000.0): (
        "-0x1.d48db92660193p-68 0x1.657a6057387bcp-49 "
         "0x1.5f6a4ae3816e5p-66 0x1.0c1bc8491c4cbp-47",
        "-0x1.836b89f6b4edbp-65 0x1.709da7340bf78p-47 "
         "0x1.2290a78754477p-63 0x1.14763d7b7156ap-45",
        "-0x1.4055ddce25dfap-62 0x1.7c19c44357d4ap-45 "
         "0x1.e080ccf209c42p-61 0x1.1d135368a11fep-43",
        "-0x1.08ddf1820570cp-59 0x1.87f17c5af8594p-43 "
         "0x1.8d4ceac45c9abp-58 0x1.25f51dd3c3073p-41",
        "-0x1.b601afffa9af1p-57 0x1.9427aad6ffb4cp-41 "
         "0x1.48814512c6a10p-55 0x1.2f1dc19de89cfp-39",
        "-0x1.6a299c6c64c16p-54 0x1.a0bf43072ee2dp-39 "
         "0x1.0f9f379a29af7p-52 0x1.388f7636ea1f3p-37",
        "-0x1.2b7395a5879ccp-51 0x1.adbb52dacca2ep-37 "
         "0x1.c12d6a2fd1c52p-50 0x1.424c88996aabap-35",
        "-0x1.ef32ea81d916ep-49 0x1.bb1f08cfee2a6p-35 "
         "0x1.7366448b4b610p-47 0x1.4c57625859248p-33",
        "-0x1.9973cd17044e7p-46 0x1.c8edc2814d5b6p-33 "
         "0x1.331705c2b60dep-44 0x1.56b29b6fc93fap-31",
        "-0x1.528debc87e007p-43 0x1.d72b32072127ep-31 "
         "0x1.fbd59c93417adp-42 0x1.6161289b07a76p-29",
        "-0x1.17ef547e85563p-40 0x1.e5dbbfda1ee22p-29 "
         "0x1.a3e88c3896d6fp-39 0x1.6c66d54d89d67p-27",
        "-0x1.cef09f2e94926p-38 0x1.f5058d403acfap-27 "
         "0x1.5b37c4c7f24afp-36 0x1.77c9866b192d7p-25",
        "-0x1.7ecfde2d2bd94p-35 0x1.02599094e1820p-24 "
         "0x1.1f22ed1dc280cp-33 0x1.839492a1175c7p-23",
        "-0x1.3c98bc1492551p-32 0x1.0a7d42744c6e4p-22 "
         "0x1.db0302ee9a9a3p-31 0x1.8fe1aa9d62035p-21",
        "-0x1.05ed7804f1216p-29 0x1.1308239edd70bp-20 "
         "0x1.8923f8985486dp-28 0x1.9cf0bd2b12c33p-19",
        "-0x1.b1cba3871c1afp-27 0x1.1c3d7d5ae44cap-18 "
         "0x1.45e13d6b8fbf7p-25 0x1.ab6939370ddf4p-17",
        "-0x1.68142b67857eep-24 0x1.26d1b7e8c8654p-16 "
         "0x1.0f368651769a0p-22 0x1.bd14cd471d98ep-15",
        "-0x1.2ccc8075c21a6p-21 0x1.34c6dd812b1e2p-14 "
         "0x1.c857bb9fc6bacp-20 0x1.d73ab2f46235cp-13",
        "-0x1.ffc0f248c1daep-19 0x1.4cca4510092c3p-12 "
         "0x1.8c6b787e8be00p-17 0x1.069fe89b246fap-10",
        "-0x1.cfd69a1e59fbbp-16 0x1.8ee22d2888e5dp-10 "
         "0x1.8401dbb0190d1p-14 0x1.6330abed4056dp-8",
        "-0x1.fe176999b19e3p-13 0x1.3035827a529dap-7 "
         "0x1.e8de339d6fb0fp-11 0x1.2bdb2b5bfc307p-5",
        "-0x1.2eca18242d7d8p-9 0x1.a55c64479fa34p-5 "
         "0x1.0a9a3413107aap-7 0x1.4d3612faf40b5p-3",
        "-0x1.0521e49423c86p-6 0x1.6cd7d4950bce0p-3 "
         "0x1.58c11fd1d44efp-5 0x1.847874d117d5ap-2",
        "-0x1.2d06b25912abep-4 0x1.9d959b12d2c2dp-2 "
         "0x1.198bb4acf81d7p-3 0x1.1fb27ae6d2ee8p-1",
        "-0x1.fdf834f6c6e42p-3 0x1.62ebfa336a836p-1 "
         "0x1.53a2a3acd92fdp-2 0x1.4b87e89b18894p-1",
        "-0x1.5e403bb565c78p-1 0x1.00fc75a9e0ca8p+0 "
         "0x1.54381cbd63f9ep-1 0x1.516493d28457cp-1",
        "-0x1.a20c6753d62bfp+0 0x1.4f6a15e987c74p+0 "
         "0x1.3094784a03484p+0 0x1.4521cb4e6961cp-1",
        "-0x1.c599484333842p+1 0x1.9a3200ac68d40p+0 "
         "0x1.fe1242f489f6bp+0 0x1.341256f4d5f8bp-1",
        "-0x1.ccca9b29f40edp+2 0x1.e10e65b429fb8p+0 "
         "0x1.9b30371c0c38ap+1 0x1.248b6469333e7p-1",
        "-0x1.bee3e137b4fb7p+3 0x1.1253c0378f745p+1 "
         "0x1.451680150a943p+2 0x1.188bfb157336ep-1",
        "-0x1.a33ffce9efb05p+4 0x1.32ebc0b97614ap+1 "
         "0x1.fdf81f3f87dc5p+2 0x1.1009ef72b2bacp-1",
        "-0x1.7fe73fec0d38fp+5 0x1.52ae772e983d0p+1 "
         "0x1.8f7f619062bf6p+3 0x1.0a4c78b951535p-1",
        "-0x1.59418104f7c3ap+6 0x1.71e374ed3ac54p+1 "
         "0x1.39a3c62e8278fp+4 0x1.068a7326c0b7ep-1",
        "-0x1.32464b620eaa6p+7 0x1.90bc86c535fcbp+1 "
         "0x1.ee38e7444de04p+4 0x1.04202a75ff079p-1",
        "-0x1.0cd196a3bb697p+8 0x1.af5adb73be095p+1 "
         "0x1.86dac2be8b4dcp+5 0x1.029750b2d1861p-1",
        "-0x1.d3ea50a3ba50fp+8 0x1.cdd3ffa2b6f37p+1 "
         "0x1.3626ee28c3cbap+6 0x1.019f77acbcd5cp-1",
        "-0x1.9473568d68a1ap+9 0x1.ec35baa56d0a4p+1 "
         "0x1.ed989edd87c52p+6 0x1.0103ca48c75b4p-1",
        "-0x1.5b9cd23d711b2p+10 0x1.05446335ec948p+2 "
         "0x1.899f2c66b0249p+7 0x1.00a2466c131bdp-1",
        "-0x1.2955452a6876ap+11 0x1.146950ba7a27ep+2 "
         "0x1.3a67ef3358230p+8 0x1.00654c0222e42p-1",
        "-0x1.fa90be376c63ep+11 0x1.238b5f07ea896p+2 "
         "0x1.f6dbbb204d843p+8 0x1.003f34ea624b4p-1",
    ),
    ('qed', 0.1, math.inf): (
        "-0x1.385e7b6fb41a0p-69 0x1.dca32b20c32e8p-51 "
         "0x1.d48db9314f10dp-68 0x1.657a6063bbe0ap-49",
        "-0x1.0247b150d0087p-66 0x1.eb7cdef4d8154p-49 "
         "0x1.836b8a0df5e7ep-65 0x1.709da7553c427p-47",
        "-0x1.ab1d27c4a8370p-64 0x1.facd05bbcf3d8p-47 "
         "0x1.4055ddff99ee7p-62 0x1.7c19c49b5d286p-45",
        "-0x1.6127ecbc84f9ep-61 0x1.054ba84d784f0p-44 "
         "0x1.08ddf1eb30733p-59 0x1.87f17d446890ap-43",
        "-0x1.2401202002f56p-58 0x1.0d6fc7669e081p-42 "
         "0x1.b601b1bef5ce8p-57 0x1.9427ad421767bp-41",
        "-0x1.e2e2266ef7aebp-56 0x1.15d4d7d0741cep-40 "
         "0x1.6a29a0239aeb0p-54 0x1.a0bf49710cb1ap-39",
        "-0x1.8f44c8aaf2f1ep-53 0x1.1e7ce32105dc9p-38 "
         "0x1.2b739d8c59d94p-51 0x1.adbb63dd1dc45p-37",
        "-0x1.4a21f417f5ae8p-50 0x1.276a09203bd50p-36 "
         "0x1.ef330c1d3794ep-49 0x1.bb1f35ebd6df9p-35",
        "-0x1.10f7e335f5efep-47 0x1.309e8a4acf3b2p-34 "
         "0x1.9974148ed7d89p-46 0x1.c8ee3a2347e64p-33",
        "-0x1.c367faf3b67b6p-45 0x1.3a1ce2e2bbfc8p-32 "
         "0x1.528e83c4c48d1p-43 0x1.d72c6f4f4c250p-31",
        "-0x1.753f49eab67ecp-42 0x1.43e811e25f45ep-30 "
         "0x1.17f097b8d8535p-40 0x1.e5df095e839d8p-29",
        "-0x1.34a0cd375b6a8p-39 0x1.4e04546134bcfp-28 "
         "0x1.cef5fe23331ddp-38 0x1.f50e457a316f1p-27",
        "-0x1.fe6c2333f4de1p-37 0x1.58791654a1010p-26 "
         "0x1.7edb4b565369fp-35 0x1.02652237da66fp-24",
        "-0x1.a6247c572167ap-34 0x1.63561ba3457a6p-24 "
         "0x1.3cb10f57f26fcp-32 0x1.0a9bfc27740b9p-22",
        "-0x1.5d4419e3c5defp-31 0x1.6ec14e3c754d8p-22 "
         "0x1.0621579ad9ca0p-29 0x1.1359ed6896a92p-20",
        "-0x1.21426f6d24077p-28 0x1.7b1c3458b7833p-20 "
         "0x1.b2a9dc451a609p-27 0x1.1d187f635a6c2p-18",
        "-0x1.e0603eb70e407p-26 0x1.896d64b0cc053p-18 "
         "0x1.69f5c8de7be19p-24 0x1.292584b133570p-16",
        "-0x1.91abd463d430dp-23 0x1.9ca7a6d7ef285p-16 "
         "0x1.310342d756586p-21 0x1.3b66d72fe6234p-14",
        "-0x1.56b7d7fdf8f62p-20 0x1.bf18d062b4bfap-14 "
         "0x1.0a8d8bc95275ep-18 0x1.63ab098861732p-12",
        "-0x1.41b7f62bf326bp-17 0x1.24254ac6b2fb7p-11 "
         "0x1.20ae11030c356p-15 0x1.2cac0b3b13d5fp-9",
        "-0x1.f29799ebd253cp-14 0x1.6f5b4e86d14f5p-8 "
         "0x1.35d8b68fb2e0ap-11 0x1.d9908f23e7a04p-6",
        "-0x1.dc35636851b9ap-10 0x1.816deb1385b0bp-5 "
         "0x1.fb2b089040a2fp-8 0x1.6583b1b063696p-3",
        "-0x1.0317d37a2d596p-6 0x1.88188daaf8d9ap-3 "
         "0x1.7d477d74173afp-5 0x1.c78fed9291435p-2",
        "-0x1.486cd5618a7f0p-4 0x1.d7585c5fbc99cp-2 "
         "0x1.482fe6f6bdb8ep-3 0x1.59fff4ae40722p-1",
        "-0x1.2262ad44e0754p-2 0x1.9f4fff76d0ce8p-1 "
         "0x1.956917d1cae07p-2 0x1.95487e553dcfep-1",
        "-0x1.986bcb5eca80ep-1 0x1.31ab2181c78ccp+0 "
         "0x1.9cd93d567da76p-1 0x1.a2ee36c505a60p-1",
        "-0x1.ef192dd4eadc3p+0 0x1.9379661abbd3ap+0 "
         "0x1.762915bf9c85ap+0 0x1.964334154ad35p-1",
        "-0x1.0f74c3c4bc491p+2 0x1.f08e6c9169b5dp+0 "
         "0x1.3aea5e243ca34p+1 0x1.7cc23356b846cp-1",
        "-0x1.15821e5f4baf2p+3 0x1.23853ba0b2093p+1 "
         "0x1.f9499f4c7893ap+1 0x1.5fa731eb41ea1p-1",
        "-0x1.0dc2bbdb6ad5bp+4 0x1.4b6c41129dd17p+1 "
         "0x1.8982308124a7cp+2 0x1.44e9ff5ae72a6p-1",
        "-0x1.f98bee34f8796p+4 0x1.70761178f14fap+1 "
         "0x1.2da4f7e71abdbp+3 0x1.2f623f60760bep-1",
        "-0x1.cd167ba0b471ep+5 0x1.934b8c4e7e0fep+1 "
         "0x1.cbf0906ac99d2p+3 0x1.1f83324309319p-1",
        "-0x1.9c37272aea9f6p+6 0x1.b48d4f18e5c2bp+1 "
         "0x1.5f39427ef4d2bp+4 0x1.147c5931cf1d0p-1",
        "-0x1.6b118ac1f4e41p+7 0x1.d4bc0b9a42b76p+1 "
         "0x1.0dbe82407d9e8p+5 0x1.0d1e47d54d5acp-1",
        "-0x1.3c34429cf6dd2p+8 0x1.f43558d4b2e64p+1 "
         "0x1.a16efc59cccd1p+5 0x1.08519ea2bca51p-1",
        "-0x1.1106cfc00f8dfp+9 0x1.099cb48789f90p+2 "
         "0x1.4572c811f480fp+6 0x1.053e13c68fce4p-1",
        "-0x1.d454b74408062p+9 0x1.18f95b274e08fp+2 "
         "0x1.feebb898953d8p+6 0x1.034a6fb5b3708p-1",
        "-0x1.8f865b836353cp+10 0x1.283e5e391c2c5p+2 "
         "0x1.934e16cd3ac13p+7 0x1.020f7e181b5bep-1",
        "-0x1.5357b495dd7aap+11 0x1.3774827e4a0a8p+2 "
         "0x1.3fc29f3e8ab1cp+8 0x1.0149c669b3f58p-1",
        "-0x1.1f2dec1ce1184p+12 0x1.46a153f14a1e8p+2 "
         "0x1.fcb9fdcc1498fp+8 0x1.00cdf73be9f58p-1",
    ),
}


def bath_of(model, gamma, omega_prime):
    if model == "ohmic":
        return canonicalize(OhmicSpec(gamma=gamma))
    if model == "srt":
        return canonicalize(SingleRelaxationSpec(
            gamma=gamma, tau=1.0 / (omega_prime + gamma)))
    return canonicalize(QEDSpec(gamma=gamma, omega_prime=omega_prime))


def hexes(point):
    return " ".join(v.hex() for v in (point.F, point.S, point.U, point.C))


@pytest.mark.parametrize("key", EXACT_J_ROWS)
def test_sweep_rows_are_pinned(key):
    points = thermo.sweep(bath_of(*key), THETAS)
    assert [point.theta for point in points] == THETAS
    assert [hexes(point) for point in points] == list(EXACT_J_ROWS[key])


@pytest.mark.parametrize("key", EXACT_J_ROWS)
def test_point_rows_are_pinned(key):
    bath = bath_of(*key)
    assert [hexes(thermo.thermo_point(bath, theta)) for theta in THETAS] \
        == list(EXACT_J_ROWS[key])


def test_no_real_argument_takes_a_shift_step(monkeypatch):
    # real singles and real pairs come from the Taylor table and the
    # asymptotic series; only complex arguments may still shift
    shift_count = sj._shift_count

    def complex_only(z):
        assert z.imag != 0.0, f"shift recurrence at the real {z!r}"
        return shift_count(z)

    monkeypatch.setattr(sj, "_shift_count", complex_only)
    for key in EXACT_J_ROWS:
        thermo.sweep(bath_of(*key), THETAS)


FAILING_BATHS = [("ohmic", 1.0, None), ("srt", 0.5, 1e2), ("qed", 0.1, 1e3),
                 ("qed", 10.0, 1e3)]


def failure(call):
    with pytest.raises((ArithmeticError, ValueError)) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("key", FAILING_BATHS)
@pytest.mark.parametrize("bad", [3e305, 1e306, 1e307, 1.7e308, 1e-309])
def test_a_failing_sweep_names_its_first_failing_theta(key, bad):
    # term by term over the list, a later temperature's terms run before an
    # earlier one's point is made: the sweep must still fail as
    # thermo_point fails at the first failing theta of the list, whether
    # that theta comes after finite points or before them
    bath = bath_of(*key)
    subnormal = 1e-310
    for thetas in ([0.5, 2.0, bad], [bad, 0.5, 2.0], [0.5, bad, subnormal],
                   [0.5, subnormal, bad], [1e300, bad, 1.7e308]):
        first = next(theta for theta in thetas
                     if theta < 1e-308 or theta > 2e305)
        expected = failure(lambda: thermo.thermo_point(bath, first))
        assert failure(lambda: thermo.sweep(bath, thetas)) == expected
        assert re.search(f"theta = {re.escape(repr(first))}", expected[1])


def test_an_argument_of_zero_names_theta():
    # Ohmic gamma = 1e20: the smaller root 1e-20 over 2 pi theta is 0.0 at
    # theta = 1e305, where no jet of J exists
    bath = bath_of("ohmic", 1e20, None)
    assert math.isfinite(thermo.thermo_point(bath, 1e300).F)
    for thetas in ([1e305], [1.0, 1e305, 1e-310], [1e305, 1e-310]):
        with pytest.raises(ValueError, match=r"theta = 1e\+305 .* is 0"):
            thermo.sweep(bath, thetas)


def test_cli_sweep_names_the_first_overflowing_theta(capsys):
    status = cli.main(["sweep", "--model", "qed", "--gamma", "0.1",
                       "--omega-prime", "1e3", "--theta-min", "1e300",
                       "--theta-max", "1e307", "--points", "8", "--log",
                       "--method", "exact_j"])
    assert status == cli.EXIT_NUMERICAL
    assert "theta = 9.999999999999991e+305 " in capsys.readouterr().err
