"""Deterministic synthetic corpora for the bundled experiments.

Two corpora ship with the repo (see scripts/make_corpora.py):

* overfit: two domains, six slots, disjoint value lexicons. A model that
  memorizes the source domain perfectly tags its own training set.
* transfer: three source travel domains and one target domain whose unseen
  slots share description tokens (and partial value lexicons) with source
  slots, so similarity-based label confusion has signal to exploit.
"""

from __future__ import annotations

from .data import Utterance
from .rng import make_rng


def _fill(template: str, lexicons: dict[str, list[str]], rng, domain: str, uid: str) -> Utterance:
    tokens: list[str] = []
    bio: list[str] = []
    types: list[str | None] = []
    for piece in template.split():
        if piece.startswith("<") and piece.endswith(">"):
            slot = piece[1:-1]
            value = lexicons[slot][rng.integers(len(lexicons[slot]))]
            for i, tok in enumerate(value.split()):
                tokens.append(tok)
                bio.append("B" if i == 0 else "I")
                types.append(slot)
        else:
            tokens.append(piece)
            bio.append("O")
            types.append(None)
    return Utterance(tokens, bio, types, domain, uid)


def _generate(domain_specs, counts: dict[str, int], seed: int) -> list[Utterance]:
    rng = make_rng(seed)
    utterances = []
    for domain, (templates, lexicons) in domain_specs.items():
        for i in range(counts[domain]):
            template = templates[i % len(templates)]
            utterances.append(_fill(template, lexicons, rng, domain, f"{domain}:{i}"))
    return utterances


OVERFIT_SEED = 7
TRANSFER_SEED = 11


def overfit_utterances(seed: int = OVERFIT_SEED) -> list[Utterance]:
    """Two domains, 50 utterances, 6 slots; target has 2 unseen slots."""
    artists = ["coltrane", "mingus trio", "ella", "brubeck quartet", "monk"]
    playlists = ["morning jazz", "focus beats", "roadtrip"]
    services = ["spotify", "deezer", "tidal"]
    devices = ["kitchen speaker", "porch speaker", "bedroom speaker"]
    dishes = ["lasagna", "roast chicken", "lentil soup"]
    minutes = ["twenty", "forty five", "ninety"]
    music = (
        [
            "play <artist_name> on <service_name>",
            "add <artist_name> to <playlist_name>",
            "use the <device_name> to play <artist_name>",
            "queue <playlist_name> on <service_name>",
            "skip this song please",
        ],
        {
            "artist_name": artists,
            "playlist_name": playlists,
            "service_name": services,
            "device_name": devices,
        },
    )
    kitchen = (
        [
            "set a timer for <dish_name> on the <device_name>",
            "start a <service_name> timer for <cook_time> minutes",
            "cook <dish_name> for <cook_time> minutes",
            "stop the timer now",
        ],
        {
            "dish_name": dishes,
            "cook_time": minutes,
            "service_name": services,
            "device_name": devices,
        },
    )
    return _generate(
        {"music": music, "kitchen": kitchen}, {"music": 30, "kitchen": 20}, seed
    )


def transfer_utterances(seed: int = TRANSFER_SEED) -> list[Utterance]:
    """Three source travel domains plus a target bus domain (~300 utterances).

    Target slots: origin_city and travel_date are seen; luggage_count and
    company_name are unseen but share description tokens ("count", "name")
    with source slots whose values look alike.
    """
    cities = ["arden", "bellmore", "castra", "doverfield", "eastvale", "farrow"]
    dates = ["monday", "tuesday", "friday", "sunday", "march third", "april first"]
    counts = ["two", "three", "four", "five", "six"]
    airlines = ["silver wings", "blue wings", "golden wings"]
    operators = ["silver express", "blue express", "golden express"]
    hotels = ["silver lodge", "blue lodge", "golden lodge"]
    # unseen first tokens, shared suffix: the tagger can still find the
    # spans, typing them correctly needs the label-space refinement
    companies = ["crimson express", "violet express", "amber express"]

    flight = (
        [
            "book a flight from <origin_city> on <travel_date>",
            "fly with <airline_name> from <origin_city>",
            "reserve a flight for <passenger_count> passengers on <travel_date>",
            "fly with <airline_name> for <passenger_count> passengers",
            "find flights from <origin_city> with <airline_name>",
        ],
        {
            "origin_city": cities,
            "travel_date": dates,
            "passenger_count": counts,
            "airline_name": airlines,
        },
    )
    train = (
        [
            "take the train from <origin_city> on <travel_date>",
            "ride with <operator_name> from <origin_city>",
            "train tickets for <passenger_count> passengers on <travel_date>",
            "travel with <operator_name> for <passenger_count> passengers",
            "trains from <origin_city> with <operator_name>",
        ],
        {
            "origin_city": cities,
            "travel_date": dates,
            "passenger_count": counts,
            "operator_name": operators,
        },
    )
    hotel = (
        [
            "stay at <hotel_name> on <travel_date>",
            "book a room for <guest_count> guests at <hotel_name>",
            "reserve <hotel_name> for <guest_count> guests",
            "rooms at <hotel_name> starting <travel_date>",
        ],
        {
            "hotel_name": hotels,
            "guest_count": counts,
            "travel_date": dates,
        },
    )
    bus = (
        [
            "book a bus from <origin_city> on <travel_date>",
            "ride with <company_name> from <origin_city>",
            "bus tickets for <luggage_count> bags on <travel_date>",
            "travel with <company_name> for <luggage_count> bags",
        ],
        {
            "origin_city": cities,
            "travel_date": dates,
            "luggage_count": counts,
            "company_name": companies,
        },
    )
    return _generate(
        {"flight": flight, "train": train, "hotel": hotel, "bus": bus},
        {"flight": 80, "train": 80, "hotel": 80, "bus": 60},
        seed,
    )
