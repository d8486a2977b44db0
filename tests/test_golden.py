"""Golden hashes: every artifact of fixed runs, byte for byte.

Refactors must leave these hashes unchanged. Every artifact echoes the
run configuration but the input and output paths, and names each input
by file name and sha256, so the hashes do not depend on the paths or on
the working directory; the runs use a temporary one. To re-record after
a deliberate output change, run this file with TIEDIV_PRINT_GOLDEN=1 and
`-s`.
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
        "out/clean_fixes.csv": "00739f21a6add0197a8b7681820efd5912329debe4c0c09ff84e3f2765db6b5b",
        "out/compare.csv": "181708a78d92347c5a6335e7690a13236c7ac786c2882083eb4d639dea042c70",
        "out/encounters.csv": "6590ea6fb4135edc7cbcbfea49d8eeae1ddc58811c747020e4eef6792bb931bc",
        "out/evolution.csv": "60cd55dd63d737eeda59b268fafef002b8698bcf43b964e6e1e7d05052004b9b",
        "out/features.csv": "1a841774bc7b4f922950bf357509d047ad969c0459737a241d1274970c7d0a9f",
        "out/fixes.csv": "9b6ed54c75211449f7795381c2f655311e1d268d7ecc150bc134e64f4fa017fb",
        "out/ingest_rejects.txt": "2c5f054a47c43e0f7d7170034e4c4b545d898d8ff6752a3c6eae68d727b21e0c",
        "out/pairs.csv": "4ea8a00fc4a64099081211ff6821f2f892754b14ec0a891e03709826e01b0487",
        "out/subgroups.csv": "c20d91e8eb79e42c5be2a50a4dd73cee182afe3273d27f55395d7a2c7376d55f",
        "out/survey.csv": "5b2ac56253f3e130044785cd722c8c431f1d59efc6835af764fa4ba81e907c71",
        "out/sweep_q.csv": "acff95dcf23e57224360afaf614c3e98b9ecea9a53ce282023c48ba55a103175",
        "out/sweep_t.csv": "e7d7a9afca28a50d47e8825170403466f3a361d10c5a25da2fa33c5fada4609c",
        "out/valid_days.csv": "4c0f70d281b2e9da6e86cefa09028fc1f785154c0d504cd4b68d1209fee01808",
    },
    "synth": {
        "gen/synth_gps.csv": "f7b27e8239e723a92ac69da2e55ae2b02f4eb22e2a35b061d69cb23d764414ab",
        "gen/synth_survey.csv": "0193b5999b84a96b4b7fdb948288e74d866511ff36c6d2fe9c79e73bdb2dc223",
        "out/clean_fixes.csv": "eef1f9f9bc199b1c1c1d7e7e3936da61e6f7973a9b4ce3270defd2c85487db72",
        "out/compare.csv": "b17befe73b8580fcdd19a49553ab296405275e0204df4f92a219b47105678d1f",
        "out/encounters.csv": "cfefcd19b5c8fd38c0b090d48d29fd6290708748b1eedb9aa297ee7ae934ded6",
        "out/evolution.csv": "398b09c5ff3368e9c7ca1303924d99b46213efd0b36ee084770bffc4d0718040",
        "out/features.csv": "3145177117b0b5d23863a199de4256f930b1f5cc45af8988d5cb379f907aed39",
        "out/fixes.csv": "29b41b75673322f3e1c538fe0e5335851cf6e3352de5f7ca051503c11768f1d6",
        "out/ingest_rejects.txt": "b4ab5ccef4c1222df3c19b08b65411b4f1038a566dd0d073daac0e0783432874",
        "out/pairs.csv": "7dd5da34eccc73c8bb546fe4346bff95fa1e659077eca85f9633a9bc87fb7711",
        "out/subgroups.csv": "ce0f28212e9c18267eaec35d334078c51108a86ee027ed03c2dc1e067dd126ef",
        "out/survey.csv": "4a45fe714d03f8bbeeab4b66fd5405e29e3787858df5e3b3d21d3e0ea5f2c3ec",
        "out/sweep_q.csv": "f3b2d7c76d3a8a136b7fbf52e13fd2e3edba3511d53aa953217c263ab6b89a85",
        "out/sweep_t.csv": "883bb37b1baaf5dcf81a8e5879d8c9a53615145abc8a17b90f368af8becd0b55",
        "out/valid_days.csv": "4df8fdc1e1a909f8a8058c8d8497d9e77167bdbb89b9106f01b7692dd170ea81",
    },
    "messy": {
        "messy_gps.csv": "e1fb0884111485ac65a35f5752f1017f3eb47a0870ae71b00b35ef5965b412cc",
        "messy_survey.csv": "01e963e3eda4389b8dc0782cf2e87c85cb2cf7745b2ba4b2937fea04f734adbc",
        "out/fixes.csv": "39f7548dbcebace95f342b4b77666bed818b5e29114650a1577c51c3e35d0521",
        "out/ingest_rejects.txt": "6506bda746e3d0cdad3b653f299a76933080db32eb0f5dbf0686bd62fab1aae3",
        "out/survey.csv": "2b50750426cf3cc62edbe94e4eca24eda103f28acad2a1d89bbd7b3acad6e698",
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
