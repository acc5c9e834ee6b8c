"""Deterministic synthetic job-postings fixture.

Stands in for the real postings CSV when it is not available. The planted
signal mirrors the real dataset's structure: fraudulent rows carry
distinctive rare tokens (drawn from a long tail too infrequent to surface
in top-K term counts) and a missing-company-logo bias, with a slice of
hard rows on both sides so no model can be perfect. Everything derives
from one splitmix64 stream, so (rows, seed) pins the file byte for byte.
The header is ``ingest.COLUMNS``, the 18 CSV columns of a ``Posting``.

Generate a file with ``python -m jobfraud.synth out.csv --rows 2000``.
"""

import argparse

from .ingest import COLUMNS, format_csv
from .rng import SplitMix64

_ROLES = (
    ["manager"] * 8 + ["developer"] * 7 + ["engineer"] * 7
    + ["analyst"] * 3 + ["consultant"] * 2 + ["designer"] * 2
    + ["specialist"] * 2 + ["coordinator"] * 2 + ["architect", "administrator"]
)
_SENIORITY = ["Senior", "Junior", "Lead", "Principal", "Staff", "Associate"]
_DOMAINS = [
    "Software", "Sales", "Marketing", "Data", "Product", "Account",
    "Operations", "Support", "Finance", "Cloud", "Platform", "Security",
]
_COUNTRIES = ["US"] * 6 + ["GB", "CA", "AU", "DE", "IN"]
_CITIES = [
    "Austin", "Boston", "Chicago", "Denver", "Seattle", "Portland", "Atlanta",
    "Dallas", "Houston", "Phoenix", "Miami", "Orlando", "Columbus", "Raleigh",
    "London", "Manchester", "Bristol", "Toronto", "Vancouver", "Calgary",
    "Sydney", "Melbourne", "Brisbane", "Berlin", "Munich", "Hamburg",
    "Pune", "Bangalore", "Chennai", "Hyderabad", "Nashville", "Tampa",
    "Detroit", "Memphis", "Tucson", "Fresno", "Omaha", "Tulsa", "Reno", "Boise",
]
_STATES = ["NY", "CA", "TX", "WA", "IL", "MA", "GA", "CO", "FL", "OH"]
_DEPARTMENTS = ["Engineering", "Sales", "Marketing", "Operations", "Finance", "Support", "Product", "IT"]
_EMPLOYMENT = ["Full-time", "Part-time", "Contract", "Temporary", "Other"]
_EXPERIENCE = ["Entry level", "Associate", "Mid-Senior level", "Director", "Internship", "Executive"]
_EDUCATION = [
    "Bachelor's Degree", "Master's Degree", "High School or equivalent",
    "Associate Degree", "Certification", "Doctorate",
]
_INDUSTRIES = [
    "Information Technology", "Financial Services", "Hospital & Health Care",
    "Marketing and Advertising", "Retail", "Telecommunications", "Education Management",
    "Construction", "Insurance", "Real Estate", "Logistics", "Consumer Services",
]
_FUNCTIONS = [
    "Engineering", "Sales", "Marketing", "Customer Service", "Information Technology",
    "Finance", "Design", "Administrative", "Management", "Consulting",
]
_TOOLS = [
    "python", "java", "javascript", "typescript", "react", "angular", "django",
    "spring", "kubernetes", "docker", "terraform", "ansible", "jenkins", "git",
    "linux", "postgres", "mysql", "mongodb", "redis", "kafka", "spark", "hadoop",
    "airflow", "tableau", "powerbi", "excel", "salesforce", "hubspot", "jira",
    "confluence", "figma", "sketch", "photoshop", "illustrator", "sap", "oracle",
    "netsuite", "workday", "zendesk", "intercom", "snowflake", "databricks",
    "golang", "rust", "scala", "swift", "kotlin", "flutter", "node", "graphql",
    "rest", "grpc", "html", "css", "sass", "webpack", "vite", "pytest", "selenium",
    "cypress", "datadog", "grafana", "prometheus", "splunk", "looker", "dbt",
    "fivetran", "segment", "amplitude", "mixpanel", "marketo", "pardot", "outreach",
    "gong", "slack", "asana", "notion", "miro", "lucidchart", "visio", "matlab",
]
_ADJECTIVES = [
    "collaborative", "innovative", "dynamic", "inclusive", "supportive",
    "ambitious", "creative", "dedicated", "reliable", "proactive", "curious",
    "analytical", "organized", "detailed", "motivated", "passionate",
    "resourceful", "adaptable", "strategic", "technical", "friendly",
    "experienced", "talented", "diverse", "growing", "established",
    "respected", "trusted", "modern", "agile", "remote", "global",
    "regional", "local", "enterprise", "startup", "customer", "quality",
    "scalable", "robust", "secure", "efficient", "flexible", "balanced",
    "transparent", "accountable", "empowered", "focused", "driven", "skilled",
]
_NOUNS = [
    "roadmap", "pipeline", "dashboard", "campaign", "portfolio", "backlog",
    "architecture", "platform", "prototype", "integration", "deployment",
    "migration", "automation", "analytics", "reporting", "forecasting",
    "onboarding", "enablement", "procurement", "compliance", "governance",
    "strategy", "budget", "invoice", "contract", "proposal", "audit",
    "inventory", "warehouse", "fulfillment", "shipment", "catalog",
    "storefront", "checkout", "subscription", "renewal", "retention",
    "outreach", "prospecting", "negotiation", "partnership", "alliance",
    "webinar", "newsletter", "branding", "positioning", "messaging",
    "research", "discovery", "benchmark", "experiment", "rollout",
    "release", "incident", "escalation", "runbook", "playbook",
    "monitoring", "alerting", "capacity", "latency", "throughput",
    "reliability", "availability", "redundancy", "failover", "backup",
    "encryption", "authentication", "authorization", "firewall", "endpoint",
    "schema", "query", "index", "cluster", "container", "microservice",
    "gateway", "webhook", "payload", "sandbox", "staging", "workflow",
    "sprint", "milestone", "retrospective", "estimate", "specification",
    "wireframe", "mockup", "usability", "accessibility", "localization",
    "translation", "documentation", "tutorial", "curriculum", "assessment",
    "payroll", "benefits", "recruiting", "interview", "referral",
    "headcount", "territory", "quota", "commission", "margin",
    "revenue", "churn", "conversion", "acquisition", "engagement",
    "ledger", "reconciliation", "settlement", "treasury", "valuation",
]

# Genuine-copy sentence pools. Slots: {role} {domain} {tool} {tool2} {adj}
# {noun} {years} {city}. Written to keep "experience", "work", and "team"
# the dominant content words of the corpus.
_PROFILE_SENTENCES = [
    "our {adj} team builds {domain} products for clients in {city}",
    "we are a {adj} company with a {adj2} team of {role}s",
    "founded in 20{years}, our team delivers {domain} solutions worldwide",
    "we help customers work smarter with {adj} {noun} tools",
    "our people value teamwork, experience, and {adj} thinking",
    "a {adj} workplace where every team member can grow",
    "we partner with {adj} brands on {noun} work across {city}",
    "our {domain} team combines deep {noun} experience with {adj} culture",
    "Sales &amp; Marketing support is central to how we work",
    "we invest in our team and in long term customer experience",
]
_DESC_SENTENCES = [
    "you will work closely with the {domain} team to ship {adj} features",
    "we are looking for a {role} with {years} years of experience",
    "hands on experience with {tool} and {tool2} is expected",
    "you will join a {adj} team that values practical experience",
    "the work includes {noun} reviews, pairing, and team planning",
    "day to day work involves {tool}, {tool2}, and team standups",
    "partner with {adj} stakeholders to scope the {noun} work",
    "bring your experience to a team that ships every week",
    "own the {noun} end to end with support from the team",
    "collaborate across teams to improve the customer experience",
    "mentor junior teammates and share your {tool} experience",
    "help the team grow a {adj} and {adj2} engineering culture",
    "you will work on {adj} {noun} problems at meaningful scale",
    "this role reports to the {domain} team lead in {city}",
    "we expect {years} years of work experience in {domain} roles",
    "contribute to team documentation and {tool} tooling",
    "experience working with {tool} in production is a plus",
    "drive {adj} improvements to the team {noun} work",
    "work with product and design on the {domain} {noun}",
    "your experience with {tool2} will shape our team practices",
    "join standup, plan the {noun}, and keep the team unblocked",
    "we support flexible work and {adj} team rituals",
    "success means measurable {noun} outcomes for the team",
    "review code, improve tests, and raise team quality",
    "translate customer needs into {adj} {noun} work",
    "experience presenting work to teams of all sizes helps",
    "experience running {noun} and {noun2} work with a team",
    "take ownership of the {noun} and the {noun2} this team runs",
]
_REQ_SENTENCES = [
    "{years} years of experience in a similar {role} role",
    "experience with {tool} and {tool2}",
    "strong written communication and teamwork",
    "a track record of {adj} {noun} work on real teams",
    "comfort working across time zones with a {adj} team",
    "bachelor degree or equivalent practical experience",
    "experience shipping {domain} work in production",
    "{tool} experience is required, {tool2} is a plus",
    "ability to plan {noun} work and deliver with the team",
    "experience mentoring or leading small teams",
    "working knowledge of {tool} and {noun} workflows",
    "a {adj} approach to feedback and team process",
    "experience owning a {noun} or a {noun2}",
]
_BENEFIT_SENTENCES = [
    "health coverage, paid leave, and team events",
    "flexible schedule and remote work options",
    "competitive pay with {adj} growth paths",
    "learning budget and {tool} certification support",
    "a {adj} team culture with real work life balance",
    "retirement plan with 401k matching",
    "annual team offsite and wellness stipend",
    "equipment budget for your home work setup",
]

# Fraud-copy pools reuse the genuine corpus vocabulary, so bag-of-count
# features see little beyond length; the discriminative text signal lives
# in the rare compound tokens below.
_FAKE_DESC_SENTENCES = [
    "work from home with a flexible schedule",
    "no experience needed, the team trains you",
    "a {adj} remote role with flexible work",
    "work when you want and grow your experience",
    "join a {adj} team from home in {city}",
    "flexible {domain} work for {adj} people",
    "remote work with weekly team support",
    "start with the team this week",
]
# Every non-slot word here also appears frequently in the genuine pools,
# so term-count features cannot key on the sentence frames, only on the
# rare {scam} compounds themselves.
_SCAM_SENTENCES = [
    "the team reviews your {scam} {noun} every week",
    "work with {scam} support from the team",
    "our {scam} and {scam2} {noun} work will support the team",
    "you will plan the {scam} {noun} with the team",
    "experience with {scam} and {tool} will support your work",
    "this {noun} work includes {scam2} support every week",
]
# 48 compound types: frequent enough in training for an embedding to
# learn (roughly a dozen occurrences each) yet far below the count of the
# 500th-ranked corpus term, so top-K term counts never include them.
_SCAM_PREFIXES = [
    "quick", "fast", "easy", "instant", "golden", "mega",
    "turbo", "prime", "lucky", "secret", "silver", "rapid",
]
_SCAM_SUFFIXES = ["cash", "payout", "wire", "kit"]
SCAM_TOKENS = [p + s for p in _SCAM_PREFIXES for s in _SCAM_SUFFIXES]

# Fake-row composition. "Text-only" fakes copy genuine numerics and
# genuine phrasing and differ only in the rare scam tokens, so count/flag
# models cannot separate them; "hard" fakes are genuine copies outright
# and bound every model's recall.
TEXT_ONLY_FAKE_RATE = 0.25
HARD_FAKE_RATE = 0.05
NOISY_GENUINE_RATE = 0.004  # genuine rows that mention one scam token


def _choice(rng, seq):
    return seq[rng.randrange(len(seq))]


def _fill(rng, template: str) -> str:
    return template.format(
        role=_choice(rng, _ROLES),
        domain=_choice(rng, _DOMAINS).lower(),
        tool=_choice(rng, _TOOLS),
        tool2=_choice(rng, _TOOLS),
        adj=_choice(rng, _ADJECTIVES),
        adj2=_choice(rng, _ADJECTIVES),
        noun=_choice(rng, _NOUNS),
        noun2=_choice(rng, _NOUNS),
        years=rng.randrange(9) + 1,
        city=_choice(rng, _CITIES).lower(),
        scam="{scam}",
        scam2="{scam2}",
    )


def _sentences(rng, pool, low, high) -> list:
    count = low + rng.randrange(high - low + 1)
    return [_fill(rng, _choice(rng, pool)) for _ in range(count)]


def _title(rng) -> str:
    parts = []
    if rng.random() < 0.5:
        parts.append(_choice(rng, _SENIORITY))
    if rng.random() < 0.7:
        parts.append(_choice(rng, _DOMAINS))
    parts.append(_choice(rng, _ROLES).capitalize())
    return " ".join(parts)


def _location(rng) -> str:
    country = _choice(rng, _COUNTRIES)
    city = _choice(rng, _CITIES)
    if country == "US" and rng.random() < 0.8:
        return f"{country}, {_choice(rng, _STATES)}, {city}"
    return f"{country}, {city}"


def _scam_phrases(rng) -> list:
    count = 1 + rng.randrange(2)
    out = []
    for _ in range(count):
        sentence = _fill(rng, _choice(rng, _SCAM_SENTENCES))
        sentence = sentence.replace("{scam}", _choice(rng, SCAM_TOKENS))
        sentence = sentence.replace("{scam2}", _choice(rng, SCAM_TOKENS))
        out.append(sentence)
    return out


def _wrap_html(rng, sentences) -> str:
    if rng.random() < 0.2:
        return "\n".join(f"<p>{s}</p>" for s in sentences)
    return ". ".join(sentences)


def _genuine_row(rng) -> dict:
    return {
        "title": _title(rng),
        "department": _choice(rng, _DEPARTMENTS) if rng.random() < 0.15 else "",
        "salary_range": f"{30 + rng.randrange(60)}000-{95 + rng.randrange(60)}000"
        if rng.random() < 0.25 else "",
        "company_profile": _wrap_html(rng, _sentences(rng, _PROFILE_SENTENCES, 1, 2)),
        "description": _wrap_html(rng, _sentences(rng, _DESC_SENTENCES, 4, 6)),
        "requirements": ". ".join(_sentences(rng, _REQ_SENTENCES, 2, 4)),
        "benefits": ". ".join(_sentences(rng, _BENEFIT_SENTENCES, 1, 2)),
        "telecommuting": int(rng.random() < 0.08),
        "has_company_logo": int(rng.random() < 0.85),
        "has_questions": int(rng.random() < 0.55),
        "employment_type": _choice(rng, _EMPLOYMENT[:1] * 7 + _EMPLOYMENT) if rng.random() < 0.85 else "",
        "required_experience": _choice(rng, _EXPERIENCE) if rng.random() < 0.7 else "",
        "required_education": _choice(rng, _EDUCATION) if rng.random() < 0.7 else "",
        "industry": _choice(rng, _INDUSTRIES) if rng.random() < 0.8 else "",
        "function": _choice(rng, _FUNCTIONS) if rng.random() < 0.8 else "",
    }


def _fake_row(rng) -> dict:
    # scam copy goes early in the text stream (title/profile), where real
    # bait sits and where a final-state reader has the shortest path
    roll = rng.random()
    if roll < HARD_FAKE_RATE:
        return _genuine_row(rng)  # indistinguishable on purpose
    if roll < HARD_FAKE_RATE + TEXT_ONLY_FAKE_RATE:
        fields = _genuine_row(rng)
        fields["company_profile"] = (
            f"{fields['company_profile']}. " + ". ".join(_scam_phrases(rng))
        )
        return fields
    desc = _sentences(rng, _FAKE_DESC_SENTENCES, 2, 4)
    benefits = _sentences(rng, _BENEFIT_SENTENCES, 0, 1)
    profile = _sentences(rng, _PROFILE_SENTENCES, 0, 1) + _scam_phrases(rng)
    title = _title(rng)
    if rng.random() < 0.5:
        title = f"{title} {_choice(rng, SCAM_TOKENS)}"
    return {
        "title": title,
        "department": "",
        "salary_range": f"{3 + rng.randrange(7)}00-{12 + rng.randrange(9)}00 weekly"
        if rng.random() < 0.6 else "",
        "company_profile": _wrap_html(rng, profile),
        "description": _wrap_html(rng, desc),
        "requirements": ". ".join(_sentences(rng, _REQ_SENTENCES, 0, 1)),
        "benefits": ". ".join(benefits),
        "telecommuting": int(rng.random() < 0.30),
        "has_company_logo": int(rng.random() < 0.35),
        "has_questions": int(rng.random() < 0.30),
        "employment_type": _choice(rng, ["Part-time", "Part-time", "Full-time", "Contract"])
        if rng.random() < 0.6 else "",
        "required_experience": "Entry level" if rng.random() < 0.4 else "",
        "required_education": _choice(rng, ["High School or equivalent", ""]) if rng.random() < 0.5 else "",
        "industry": _choice(rng, _INDUSTRIES) if rng.random() < 0.5 else "",
        "function": _choice(rng, _FUNCTIONS) if rng.random() < 0.5 else "",
    }


def generate_rows(n_rows: int = 2000, seed: int = 7, fraud_rate: float = 0.10) -> list:
    """CSV field rows (strings) under COLUMNS, with round(rate * n) fakes."""
    rng = SplitMix64(seed)
    n_fake = round(fraud_rate * n_rows)
    labels = [1] * n_fake + [0] * (n_rows - n_fake)
    rng.shuffle(labels)
    rows = []
    for job_id, label in enumerate(labels, start=1):
        fields = _fake_row(rng) if label else _genuine_row(rng)
        if not label and rng.random() < NOISY_GENUINE_RATE:
            noise = _scam_phrases(rng)[0]
            fields["description"] = f"{fields['description']}. {noise}"
        fields["location"] = _location(rng)
        fields["job_id"] = job_id
        fields["fraudulent"] = label
        rows.append([str(fields[name]) for name in COLUMNS])
    return rows


def write_fixture(path, n_rows: int = 2000, seed: int = 7, fraud_rate: float = 0.10) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_csv(COLUMNS, generate_rows(n_rows, seed, fraud_rate)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m jobfraud.synth",
        description="Write a deterministic synthetic job-postings CSV.",
    )
    parser.add_argument("out", help="output CSV path")
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fraud-rate", type=float, default=0.10)
    args = parser.parse_args(argv)
    write_fixture(args.out, args.rows, args.seed, args.fraud_rate)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
