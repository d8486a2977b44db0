"""Golden hashes: every artifact of fixed runs, byte for byte.

Refactors must leave these hashes unchanged. The runs use relative paths
from a temporary working directory, because every artifact echoes the
run configuration, input paths included. To re-record after a deliberate
output change, run this file with TIEDIV_PRINT_GOLDEN=1 and `-s`.
"""

import hashlib
import os
import shutil
from pathlib import Path

import pytest

from tiediv.cli import main

DATA = Path(__file__).parent / "data"

MESSY_GPS = """\
# exported 2016-05-02
user_id,timestamp,lat,lon,elevation,accuracy,satellites,provider
u1,2016-04-03T10:02:11Z,23.188,72.628,4.0,36.0,7,gps

u1,2016-04-03T10:07:11+05:30,23.188,72.628,,12.5,,network
user_id,timestamp,lat,lon,elevation,accuracy,satellites,provider
u2,yesterday,23.188,72.628,,12.5,,gps
u2,1459677731,91.0,72.628,,12.5,,gps
u2,1459677731,23.188,180.0,,12.5,,gps
u2,1459677731,23.188,72.628,,-1,,gps
u2,1459677731,23.188,72.628,,nan,,gps
u2,1459677731,north,72.628,,3,,gps
 ,1459677731,23.188,72.628,,3,,gps
u2,1459677731,23.188,72.628,high,3,,gps
u2,1459677731,23.188,72.628,,3,-2,gps
u2,1459677731,23.188
# trailing comment
u2,2016-04-03T15:32:11,23.189,72.629,,3,9,
"""

MESSY_SURVEY = """\
rater_id,ratee_id,closeness,proximity
# comment
u1,u2,3,2
u1,u1,3,2
u2,u1,6,2
u2,u1,3,0
u2,u1,x,2
,u1,3,2
RATER_ID,ratee_id,Closeness,proximity
u2,u1
u2,u1,4,5
"""

GOLDEN = {
    "mini": {
        "mini_gps.csv": "bfc85bd4a52415a1f86844a95a38ab9d1cc55d4a9e96a432600277f7a67fe0f5",
        "mini_survey.csv": "3fd3d4e0e79902107a3ca210c427ab43810e6e45371fdd22089422af5f1e245a",
        "out/clean_fixes.csv": "b0819ebba32b3e43ae0b32873de665a5488f0a70ba58fd70ea23877850d7fd30",
        "out/compare.csv": "b3064895bf67f325388a1e2d2e1eb0f203e7ab4bab904c15729b7e3106a18d3e",
        "out/encounters.csv": "285f545802aa8a46ceb0e99f74785f203ad2620ed4e0f6285e1760ac7b110f34",
        "out/evolution.csv": "6588355339dd69eefe321aec45fb70bcf989eed7b9ae4a2a9b4dd48e0cb698f8",
        "out/features.csv": "f0cf4aebbbd1ae9e1de539d271d22a7ebc305ff1b52f00c48ba37536a6d889d8",
        "out/fixes.csv": "b7a53df930677ef88a4ac6e2dec25289af574b88ec1d2e213e4095ecfb62c8d8",
        "out/ingest_rejects.txt": "2c5f054a47c43e0f7d7170034e4c4b545d898d8ff6752a3c6eae68d727b21e0c",
        "out/pairs.csv": "a3a72b49823b2abe4f3e1a39fa75b0e2a6c86c53f9efd6a93c8a6e22f74e85d2",
        "out/subgroups.csv": "2b1972ed7dbfbbb06a0b44cf811f13e599383b7dc9b2dfad0d63fcccb136e99c",
        "out/survey.csv": "2c95f6ad4ceab30b79a6d1cbd8a0842f8dc244755312368b21ff3761300b3d4b",
        "out/sweep_q.csv": "6a8ff40ce922bf36c95bdfc9c4b43f9619fc64d93858685cafa0a500a0ec2a42",
        "out/sweep_t.csv": "a262575e3972a1f1f29035504e4881b9a28a0410a7b7e9d3c8a1fa9d0353b0eb",
        "out/valid_days.csv": "479b298dd868c46e69e72bbf64623fe8e20e0fc8b2d104acfb863bfc15022d0d",
    },
    "synth": {
        "gen/synth_gps.csv": "82fe78f087ce7a0ac93231436089fd50b915af8c395ad6bebe7d90260b3b6caf",
        "gen/synth_survey.csv": "9ac9a2b311b0a4e8a7dc0295b9e77d811b013baf1e578a6cbc3e8f86414d79d4",
        "out/clean_fixes.csv": "c471636f874a9af61ae743900d79aadcceda34403f1bb0d4bd6c9dfad8af9d8e",
        "out/compare.csv": "256c1c63bb5cdfe6e9b886d15f9b2692d1103a4da287c84acf13aac040686070",
        "out/encounters.csv": "f96d28e7f130d1b71ed0a79155e1ff17bca11e6a342c155ac79bed79e6f292b9",
        "out/evolution.csv": "9159ae4bfc4b578f57f18ecc02294dd6975ee3df8cbd68d4782ef82b35f3af47",
        "out/features.csv": "775fb0a7de0422a9635ff7bd61b5b596c667cb3fcbb5a16db32692bfa22b53b6",
        "out/fixes.csv": "cc29c9dd93464d824b274cce714c3bdc742f2f860de35829422adfb0be90d17b",
        "out/ingest_rejects.txt": "b4ab5ccef4c1222df3c19b08b65411b4f1038a566dd0d073daac0e0783432874",
        "out/pairs.csv": "105d700c3be593156b819e78f8f768be4c2368ab4619b1b91f9a8ab9c4bb065f",
        "out/subgroups.csv": "01beec19d226fab0a8d998749b5c55323357337d541298726cb2c7082fa41023",
        "out/survey.csv": "af65557f26f0f1d06f7d7b0a64393b47cf5ee447ae6e836ada6d7019e5a439b6",
        "out/sweep_q.csv": "c75967d30666c4ded028ed8ac753e0dc6fa11a6099645173810110d3e21093f3",
        "out/sweep_t.csv": "b6ec52743d30d4d9b198317a750e4a33aa196c69365c3e77a85683cc66ce554b",
        "out/valid_days.csv": "f1bdb0f83cabc09cbcb523eef438a5bcb6dc8683f92c9ee8bc36893c54d67100",
    },
    "messy": {
        "messy_gps.csv": "e1fb0884111485ac65a35f5752f1017f3eb47a0870ae71b00b35ef5965b412cc",
        "messy_survey.csv": "01e963e3eda4389b8dc0782cf2e87c85cb2cf7745b2ba4b2937fea04f734adbc",
        "out/fixes.csv": "b15a4e50252ef1f8f4c7b1e0c2d39d265e6bd44ac812d55c91b290752c052b83",
        "out/ingest_rejects.txt": "6506bda746e3d0cdad3b653f299a76933080db32eb0f5dbf0686bd62fab1aae3",
        "out/survey.csv": "ce5847ece6442c6e3cffae2d0997fec9146bbf936bb05fe0db0305feb1b18e1b",
    },
}


def hash_files(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_case(case: str, cwd: Path) -> dict[str, str]:
    if case == "mini":
        shutil.copy(DATA / "mini_gps.csv", cwd / "mini_gps.csv")
        shutil.copy(DATA / "mini_survey.csv", cwd / "mini_survey.csv")
        assert main(["all", "--gps", "mini_gps.csv", "--survey", "mini_survey.csv", "-o", "out"]) == 0
    elif case == "synth":
        assert main(["synth", "-o", "gen", "--synth-pairs", "4", "--synth-days", "9",
                     "--seed", "11"]) == 0
        assert main(["all", "--gps", "gen/synth_gps.csv", "--survey", "gen/synth_survey.csv",
                     "-o", "out", "--min-common-days", "5", "--q", "2"]) == 0
    else:
        (cwd / "messy_gps.csv").write_text(MESSY_GPS, encoding="utf-8")
        (cwd / "messy_survey.csv").write_text(MESSY_SURVEY, encoding="utf-8")
        assert main(["ingest", "--gps", "messy_gps.csv", "--survey", "messy_survey.csv",
                     "-o", "out", "--naive-utc-offset", "+05:30"]) == 0
    return hash_files(cwd)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    hashes = run_case(case, tmp_path)
    if os.environ.get("TIEDIV_PRINT_GOLDEN"):
        print(f"\n    {case!r}: {{")
        for name, digest in hashes.items():
            print(f"        {name!r}: {digest!r},")
        print("    },")
    assert hashes == GOLDEN[case]
