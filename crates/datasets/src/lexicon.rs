//! Word lists and synonym tables used by the synthetic benchmark
//! generators and the robustness perturbations.

/// Person given names used to populate name-like columns.
pub const FIRST_NAMES: &[&str] = &[
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael", "Linda", "David",
    "Elizabeth", "William", "Barbara", "Richard", "Susan", "Joseph", "Jessica", "Thomas",
    "Sarah", "Charles", "Karen", "Hana", "Tomas", "Marta", "Jiri", "Elena", "Omar", "Aisha",
    "Wei", "Ming", "Yuki", "Hiro", "Lars", "Ingrid", "Pedro", "Lucia", "Ivan", "Olga",
];

/// Person family names.
pub const LAST_NAMES: &[&str] = &[
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis", "Martinez",
    "Lopez", "Wilson", "Anderson", "Taylor", "Thomas", "Moore", "Jackson", "White", "Harris",
    "Novak", "Svoboda", "Dvorak", "Kim", "Chen", "Tanaka", "Muller", "Schmidt", "Rossi",
    "Silva", "Santos", "Petrov", "Ivanov", "Kowalski", "Nagy", "Horvat", "Yilmaz", "Haddad",
];

/// City names.
pub const CITIES: &[&str] = &[
    "Springfield", "Riverton", "Lakewood", "Fairview", "Georgetown", "Ashland", "Milton",
    "Oakdale", "Bristol", "Clinton", "Dayton", "Florence", "Greenville", "Hudson", "Jesenik",
    "Kingston", "Lebanon", "Madison", "Newport", "Oxford", "Praha", "Quincy", "Richmond",
    "Salem", "Troy", "Union", "Vernon", "Winchester", "York", "Zlin", "Brno", "Ostrava",
];

/// Country names.
pub const COUNTRIES: &[&str] = &[
    "United States", "Canada", "France", "Germany", "Japan", "Brazil", "Australia", "India",
    "Netherlands", "Spain", "Italy", "Mexico", "Sweden", "Norway", "Poland", "Czechia",
    "Portugal", "Austria", "Belgium", "Denmark", "Finland", "Greece", "Hungary", "Ireland",
];

/// Company-ish names for org columns.
pub const ORG_WORDS: &[&str] = &[
    "Acme", "Globex", "Initech", "Umbrella", "Stark", "Wayne", "Pied", "Hooli", "Vandelay",
    "Wonka", "Cyberdyne", "Tyrell", "Aperture", "BlueSun", "Gringotts", "Monarch", "Nakatomi",
    "Oscorp", "Prestige", "Sirius", "Zorg", "Helix", "Vertex", "Quanta", "Nimbus",
];

/// Adjective-ish words for product/venue names.
pub const NAME_ADJECTIVES: &[&str] = &[
    "Golden", "Silver", "Crimson", "Royal", "Grand", "Little", "Old", "New", "Bright",
    "Silent", "Wild", "Iron", "Emerald", "Amber", "Swift", "Gentle", "Brave", "Lucky",
];

/// Noun-ish words for product/venue names.
pub const NAME_NOUNS: &[&str] = &[
    "Lion", "Eagle", "River", "Harbor", "Garden", "Bridge", "Tower", "Falcon", "Crown",
    "Meadow", "Summit", "Canyon", "Willow", "Anchor", "Beacon", "Compass", "Lantern", "Orchid",
];

/// Music/art genres.
pub const GENRES: &[&str] = &[
    "rock", "pop", "jazz", "classical", "folk", "electronic", "country", "blues", "metal",
    "reggae", "soul", "disco",
];

/// Academic fields for the Aminer-like dataset.
pub const FIELDS: &[&str] = &[
    "databases", "machine learning", "computer vision", "networks", "security", "graphics",
    "theory", "robotics", "bioinformatics", "data mining", "nlp", "systems",
];

/// A synonym table: maps a common schema word to alternatives. Used by
/// Spider-Syn / Dr.Spider schema-synonym and question perturbations.
pub const SYNONYMS: &[(&str, &[&str])] = &[
    ("name", &["title", "label", "designation"]),
    ("age", &["years", "year of age"]),
    ("country", &["nation", "homeland"]),
    ("city", &["town", "municipality"]),
    ("salary", &["pay", "wage", "earnings"]),
    ("capacity", &["size", "seating", "volume"]),
    ("price", &["cost", "amount charged"]),
    ("year", &["yr", "calendar year"]),
    ("singer", &["vocalist", "performer"]),
    ("student", &["pupil", "learner"]),
    ("teacher", &["instructor", "educator"]),
    ("employee", &["worker", "staff member"]),
    ("customer", &["client", "patron"]),
    ("order", &["purchase", "transaction"]),
    ("average", &["mean", "typical"]),
    ("count", &["number", "total number"]),
    ("maximum", &["highest", "largest", "greatest"]),
    ("minimum", &["lowest", "smallest", "least"]),
    ("show", &["list", "display", "give"]),
    ("find", &["locate", "identify", "retrieve"]),
    ("department", &["division", "unit"]),
    ("budget", &["funds", "allocation"]),
    ("grade", &["score", "mark"]),
    ("title", &["heading", "name"]),
    ("gender", &["sex"]),
    ("stadium", &["arena", "venue"]),
    ("concert", &["show", "performance"]),
    ("song", &["track", "tune"]),
    ("movie", &["film", "picture"]),
    ("director", &["filmmaker"]),
    ("author", &["writer"]),
    ("paper", &["article", "publication"]),
    ("branch", &["office", "location"]),
    ("balance", &["amount held", "funds remaining"]),
    ("amount", &["sum", "quantity"]),
    ("date", &["day", "time"]),
    ("population", &["number of residents", "inhabitants"]),
    ("weight", &["mass", "heaviness"]),
    ("height", &["stature", "tallness"]),
    ("rating", &["score", "rank"]),
];

/// Abbreviation table used by Dr.Spider's schema-abbreviation perturbation
/// and by BIRD-style ambiguous column generation.
pub const ABBREVIATIONS: &[(&str, &str)] = &[
    ("name", "nm"),
    ("number", "no"),
    ("average", "avg"),
    ("department", "dept"),
    ("quantity", "qty"),
    ("amount", "amt"),
    ("address", "addr"),
    ("account", "acct"),
    ("balance", "bal"),
    ("customer", "cust"),
    ("employee", "emp"),
    ("manager", "mgr"),
    ("location", "loc"),
    ("description", "desc"),
    ("category", "cat"),
    ("reference", "ref"),
    ("transaction", "txn"),
    ("percent", "pct"),
    ("maximum", "max"),
    ("minimum", "min"),
    ("population", "pop"),
    ("organization", "org"),
    ("student", "stu"),
    ("country", "ctry"),
    ("salary", "sal"),
    ("payment", "pmt"),
    ("revenue", "rev"),
    ("identifier", "id"),
    ("year", "yr"),
    ("month", "mo"),
];

/// Natural-language aliases of coded database values. BIRD-style questions
/// may mention the alias ("women") while the database stores the code
/// ('F'); external knowledge spells out the mapping.
pub const VALUE_ALIASES: &[(&str, &str)] = &[
    ("F", "female"),
    ("M", "male"),
    ("T", "true"),
    ("dog", "canine"),
    ("cat", "feline"),
    ("electronics", "electronic goods"),
    ("grocery", "groceries"),
    ("italian", "Italian cuisine"),
    ("japanese", "Japanese cuisine"),
    ("rock", "rock music"),
    ("pop", "pop music"),
];

/// Alias of a coded value, if known.
pub fn value_alias(value: &str) -> Option<&'static str> {
    VALUE_ALIASES.iter().find(|(v, _)| *v == value).map(|(_, a)| *a)
}

/// Look up synonyms of a word (lower-case), if any.
pub fn synonyms_of(word: &str) -> Option<&'static [&'static str]> {
    SYNONYMS
        .iter()
        .find(|(w, _)| *w == word)
        .map(|(_, syns)| *syns)
}

/// Abbreviate a word if the table knows it.
pub fn abbreviation_of(word: &str) -> Option<&'static str> {
    ABBREVIATIONS.iter().find(|(w, _)| *w == word).map(|(_, a)| *a)
}

/// Expansion: inverse abbreviation lookup.
pub fn expansion_of(abbrev: &str) -> Option<&'static str> {
    ABBREVIATIONS.iter().find(|(_, a)| *a == abbrev).map(|(w, _)| *w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synonym_lookup() {
        assert!(synonyms_of("name").unwrap().contains(&"title"));
        assert!(synonyms_of("zzz").is_none());
    }

    #[test]
    fn abbreviation_roundtrip() {
        assert_eq!(abbreviation_of("department"), Some("dept"));
        assert_eq!(expansion_of("dept"), Some("department"));
    }

    #[test]
    fn word_lists_nonempty_and_distinct() {
        for list in [FIRST_NAMES, LAST_NAMES, CITIES, COUNTRIES, ORG_WORDS] {
            assert!(list.len() >= 20);
            let set: std::collections::HashSet<_> = list.iter().collect();
            assert_eq!(set.len(), list.len());
        }
    }

    #[test]
    fn synonyms_never_equal_headword() {
        for (word, syns) in SYNONYMS {
            for s in *syns {
                assert_ne!(word, s);
            }
        }
    }
}
