#!/usr/bin/env python3
"""Regenerate the bundled synthetic mini corpus under src/aged/data/mini/.

Four frames, fourteen FEs, forty training instances (including one pair of
instances with identical tokens but different targets, used by the
target-marker ablation), and twelve test instances.
"""

import json
from pathlib import Path

OUT = Path(__file__).resolve().parents[1] / "src" / "aged" / "data" / "mini"


def t(text):
    return {"text": text}


def m(fe, surface=None):
    return {"fe": fe, "surface": surface if surface is not None else fe}


FRAMES = [
    {
        "name": "Attack",
        # Assailant is mentioned twice; Weapon is deliberately absent and
        # must be appended from fe_order when the template is built.
        "definition": [
            t("An "), m("Assailant"), t(" physically attacks a "), m("Victim"),
            t(" causing harm , and the "), m("Assailant"),
            t(" may act for a "), m("Purpose"), t(" ."),
        ],
        "fe_order": ["Assailant", "Victim", "Weapon", "Purpose"],
        "fes": {
            "Assailant": {
                "core_type": "core",
                "definition": [
                    t("The "), m("Assailant"),
                    t(" is the person or group that attacks the "), m("Victim"), t(" ."),
                ],
            },
            "Victim": {
                "core_type": "core",
                "definition": [
                    t("The "), m("Victim"), t(" suffers the harm caused by the "),
                    m("Assailant"), t(" ."),
                ],
            },
            "Weapon": {
                "core_type": "noncore",
                "definition": [
                    t("The "), m("Weapon"), t(" is the object used by the "),
                    m("Assailant"), t(" to cause harm ."),
                ],
            },
            "Purpose": {
                "core_type": "noncore",
                "definition": [
                    t("The goal that the "), m("Assailant"),
                    t(" hopes to achieve by the attack ."),
                ],
            },
        },
    },
    {
        "name": "Getting",
        "definition": [
            t("A "), m("Recipient"), t(" starts out without a "), m("Theme"),
            t(" and then comes to possess it ."),
        ],
        "fe_order": ["Recipient", "Theme", "Source"],
        "fes": {
            "Recipient": {
                "core_type": "core",
                "definition": [
                    t("The "), m("Recipient"), t(" comes into possession of the "),
                    m("Theme"), t(" ."),
                ],
            },
            "Theme": {
                "core_type": "core",
                "definition": [t("The "), m("Theme"), t(" is the object that changes hands .")],
            },
            "Source": {
                "core_type": "noncore",
                "definition": [
                    t("The person or place from which the "), m("Recipient"),
                    t(" obtains the "), m("Theme"), t(" ."),
                ],
            },
        },
    },
    {
        "name": "Arriving",
        "definition": [
            t("A "), m("Theme"), t(" moves toward a "), m("Goal"),
            t(" , leaving a "), m("Source"), t(" behind ."),
        ],
        "fe_order": ["Theme", "Goal", "Source", "Path"],
        "fes": {
            "Theme": {
                "core_type": "core",
                "definition": [
                    t("The "), m("Theme"), t(" is the entity that moves to the "),
                    m("Goal"), t(" ."),
                ],
            },
            "Goal": {
                "core_type": "core",
                "definition": [
                    t("The "), m("Goal"), t(" is the place reached by the "),
                    m("Theme"), t(" ."),
                ],
            },
            "Source": {
                "core_type": "noncore",
                "definition": [t("The starting point of the motion of the "), m("Theme"), t(" .")],
            },
            "Path": {
                "core_type": "noncore",
                "definition": [
                    t("The route along which the "), m("Theme"),
                    t(" travels to the "), m("Goal"), t(" ."),
                ],
            },
        },
    },
    {
        # Underscored names exercise multi-token slots; every FE is mentioned
        # in the definition, so the appended FE list is empty.
        "name": "Transition_to_state",
        "definition": [
            t("An "), m("Entity"), t(" changes from an "), m("Initial_state"),
            t(" to a "), m("Final_state"), t(" ."),
        ],
        "fe_order": ["Entity", "Initial_state", "Final_state"],
        "fes": {
            "Entity": {
                "core_type": "core",
                "definition": [t("The "), m("Entity"), t(" undergoes the change of state .")],
            },
            "Initial_state": {
                "core_type": "noncore",
                "definition": [t("The state of the "), m("Entity"), t(" before the change .")],
            },
            "Final_state": {
                "core_type": "core",
                "definition": [t("The state of the "), m("Entity"), t(" after the change .")],
            },
        },
    },
]


def inst(tokens, target, frame, *args):
    return {
        "tokens": tokens.split(),
        "target": target,
        "frame": frame,
        "arguments": [{"fe": fe, "start": s, "end": e} for fe, s, e in args],
    }


TRAIN = [
    inst("he was invading iraq", 3, "Attack", ("Assailant", 1, 1), ("Victim", 4, 4)),
    inst("the soldiers stormed the castle with ladders", 3, "Attack",
         ("Assailant", 1, 2), ("Victim", 4, 5), ("Weapon", 6, 7)),
    inst("she hit the ball with a bat", 2, "Attack",
         ("Assailant", 1, 1), ("Victim", 3, 4), ("Weapon", 5, 7)),
    inst("the army ambushed the convoy to seize supplies", 3, "Attack",
         ("Assailant", 1, 2), ("Victim", 4, 5), ("Purpose", 6, 8)),
    inst("pirates raided the village for gold", 2, "Attack",
         ("Assailant", 1, 1), ("Victim", 3, 4), ("Purpose", 5, 6)),
    inst("the cat pounced on the mouse", 3, "Attack",
         ("Assailant", 1, 2), ("Victim", 4, 6)),
    inst("they bombed the bridge at dawn", 2, "Attack",
         ("Assailant", 1, 1), ("Victim", 3, 4)),
    inst("the knight charged the dragon with his lance", 3, "Attack",
         ("Assailant", 1, 2), ("Victim", 4, 5), ("Weapon", 6, 8)),
    inst("rioters stoned the embassy", 2, "Attack",
         ("Assailant", 1, 1), ("Victim", 3, 4)),
    inst("the hawk struck the rabbit from above", 3, "Attack",
         ("Assailant", 1, 2), ("Victim", 4, 5)),
    # Identical token sequences, different targets: without target markers the
    # encoder input for these two is the same.
    inst("the rebels attacked the town before the army invaded the coast", 3, "Attack",
         ("Assailant", 1, 2), ("Victim", 4, 5)),
    inst("the rebels attacked the town before the army invaded the coast", 9, "Attack",
         ("Assailant", 7, 8), ("Victim", 10, 11)),
    inst("stop attacking", 2, "Attack"),
    inst("she got a letter from her aunt", 2, "Getting",
         ("Recipient", 1, 1), ("Theme", 3, 4), ("Source", 5, 7)),
    inst("the dog got a bone from the butcher", 3, "Getting",
         ("Recipient", 1, 2), ("Theme", 4, 5), ("Source", 6, 8)),
    inst("he obtained the keys from the clerk", 2, "Getting",
         ("Recipient", 1, 1), ("Theme", 3, 4), ("Source", 5, 7)),
    inst("the team acquired new uniforms", 3, "Getting",
         ("Recipient", 1, 2), ("Theme", 4, 5)),
    inst("i got fresh bread from the baker", 2, "Getting",
         ("Recipient", 1, 1), ("Theme", 3, 4), ("Source", 5, 7)),
    inst("the museum obtained a rare painting", 3, "Getting",
         ("Recipient", 1, 2), ("Theme", 4, 6)),
    inst("students got free books from the library", 2, "Getting",
         ("Recipient", 1, 1), ("Theme", 3, 4), ("Source", 5, 7)),
    inst("the child got a puppy", 3, "Getting",
         ("Recipient", 1, 2), ("Theme", 4, 5)),
    inst("farmers acquired water from the river", 2, "Getting",
         ("Recipient", 1, 1), ("Theme", 3, 3), ("Source", 4, 6)),
    inst("she received a medal from the mayor", 2, "Getting",
         ("Recipient", 1, 1), ("Theme", 3, 4), ("Source", 5, 7)),
    inst("the train arrived at the station", 3, "Arriving",
         ("Theme", 1, 2), ("Goal", 4, 6)),
    inst("she reached the summit by the north ridge", 2, "Arriving",
         ("Theme", 1, 1), ("Goal", 3, 4), ("Path", 5, 8)),
    inst("the ship entered the harbor from the open sea", 3, "Arriving",
         ("Theme", 1, 2), ("Goal", 4, 5), ("Source", 6, 9)),
    inst("he came home late", 2, "Arriving", ("Theme", 1, 1), ("Goal", 3, 3)),
    inst("the parcel arrived from warsaw", 3, "Arriving",
         ("Theme", 1, 2), ("Source", 4, 5)),
    inst("hikers reached the camp through the forest", 2, "Arriving",
         ("Theme", 1, 1), ("Goal", 3, 4), ("Path", 5, 7)),
    inst("the bus arrived at the depot from the city", 3, "Arriving",
         ("Theme", 1, 2), ("Goal", 4, 6), ("Source", 7, 9)),
    inst("refugees arrived at the border", 2, "Arriving",
         ("Theme", 1, 1), ("Goal", 3, 5)),
    inst("the letter arrived yesterday", 3, "Arriving", ("Theme", 1, 2)),
    inst("the water turned to ice overnight", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Final_state", 4, 5)),
    inst("the leaves turned from green to brown", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Initial_state", 4, 5), ("Final_state", 6, 7)),
    inst("the milk went sour", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Final_state", 4, 4)),
    inst("his mood shifted from joy to anger", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Initial_state", 4, 5), ("Final_state", 6, 7)),
    inst("the sky turned dark", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Final_state", 4, 4)),
    inst("the caterpillar became a butterfly", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Final_state", 4, 5)),
    inst("the town grew into a city", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Final_state", 4, 6)),
    inst("the road became muddy after rain", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Final_state", 4, 4)),
]

TEST = [
    inst("the wolves attacked the flock at night", 3, "Attack",
         ("Assailant", 1, 2), ("Victim", 4, 5)),
    inst("vandals smashed the windows with hammers", 2, "Attack",
         ("Assailant", 1, 1), ("Victim", 3, 4), ("Weapon", 5, 6)),
    inst("the navy shelled the port to break the siege", 3, "Attack",
         ("Assailant", 1, 2), ("Victim", 4, 5), ("Purpose", 6, 9)),
    inst("he got a map from the guide", 2, "Getting",
         ("Recipient", 1, 1), ("Theme", 3, 4), ("Source", 5, 7)),
    inst("the clinic obtained new supplies", 3, "Getting",
         ("Recipient", 1, 2), ("Theme", 4, 5)),
    inst("she got the recipe from her grandmother", 2, "Getting",
         ("Recipient", 1, 1), ("Theme", 3, 4), ("Source", 5, 7)),
    inst("the plane arrived at the gate", 3, "Arriving",
         ("Theme", 1, 2), ("Goal", 4, 6)),
    inst("divers reached the wreck through the current", 2, "Arriving",
         ("Theme", 1, 1), ("Goal", 3, 4), ("Path", 5, 7)),
    inst("the troops arrived from the capital", 3, "Arriving",
         ("Theme", 1, 2), ("Source", 4, 6)),
    inst("the butter turned rancid", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Final_state", 4, 4)),
    inst("the seed grew into a tall tree", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Final_state", 4, 7)),
    inst("her hair turned from black to grey", 3, "Transition_to_state",
         ("Entity", 1, 2), ("Initial_state", 4, 5), ("Final_state", 6, 7)),
]


def to_jsonl(records):
    return "".join(json.dumps(r) + "\n" for r in records)


def write_jsonl(records, path):
    path.write_text(to_jsonl(records), encoding="utf-8")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    write_jsonl(FRAMES, OUT / "frames.jsonl")
    write_jsonl(TRAIN, OUT / "train.jsonl")
    write_jsonl(TEST, OUT / "test.jsonl")
    n_fes = sum(len(f["fes"]) for f in FRAMES)
    n_args = sum(len(i["arguments"]) for i in TRAIN)
    print(f"wrote {len(FRAMES)} frames ({n_fes} FEs), "
          f"{len(TRAIN)} train instances ({n_args} arguments), {len(TEST)} test instances")


if __name__ == "__main__":
    main()
