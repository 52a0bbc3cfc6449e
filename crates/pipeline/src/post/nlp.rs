//! Language-model processing: WordPiece tokenization and logit handling.
//!
//! Mobile BERT is the one non-vision benchmark in Table I; its
//! pre-processing task is *tokenization* and its post-processing computes
//! logits (for question answering: start/end span scores).

use std::collections::BTreeMap;

/// A WordPiece tokenizer with greedy longest-match-first subword splitting,
/// as used by BERT-family models.
#[derive(Debug, Clone)]
pub struct WordPieceTokenizer {
    vocab: BTreeMap<String, u32>,
    unk_id: u32,
    max_chars_per_word: usize,
}

/// Token id of `[CLS]` in the built-in demo vocabulary.
pub const CLS_ID: u32 = 101;
/// Token id of `[SEP]` in the built-in demo vocabulary.
pub const SEP_ID: u32 = 102;

impl WordPieceTokenizer {
    /// Builds a tokenizer from `(token, id)` pairs.
    ///
    /// The vocabulary must contain `[UNK]`.
    ///
    /// # Panics
    ///
    /// Panics if `[UNK]` is missing.
    pub fn new(vocab: impl IntoIterator<Item = (String, u32)>) -> Self {
        let vocab: BTreeMap<String, u32> = vocab.into_iter().collect();
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract: the vocabulary must contain [UNK]"
        )]
        let unk_id = *vocab.get("[UNK]").expect("vocabulary must contain [UNK]");
        WordPieceTokenizer {
            vocab,
            unk_id,
            max_chars_per_word: 100,
        }
    }

    /// A small built-in vocabulary good enough for tests and the
    /// MobileBERT benchmark driver (common English subwords).
    pub fn demo() -> Self {
        let words = [
            "[PAD]", "[UNK]", "[CLS]", "[SEP]", "the", "a", "an", "of", "to", "and", "in", "is",
            "it", "on", "what", "who", "when", "where", "how", "why", "do", "does", "did", "can",
            "could", "phone", "time", "run", "runs", "model", "neural", "network", "net", "work",
            "works", "mobile", "learn", "learning", "machine", "deep", "fast", "slow", "ai", "tax",
            "late", "latency", "##s", "##ing", "##ed", "##er", "##est", "##ly", "##ness", "##work",
            "##net", "##phone", "per", "form", "##form", "##ance", "bench", "##mark", "quick",
            "brown", "fox", "jump", "##ump", "lazy", "dog", "over",
        ];
        let mut vocab: Vec<(String, u32)> = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.to_string(), i as u32 + 200))
            .collect();
        // Stable special ids matching BERT conventions.
        vocab.push(("[CLS]".into(), CLS_ID));
        vocab.push(("[SEP]".into(), SEP_ID));
        vocab.retain(|(w, id)| !((w == "[CLS]" || w == "[SEP]") && *id >= 200));
        WordPieceTokenizer::new(vocab)
    }

    /// Vocabulary size.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// Lower-cases, strips punctuation into separate words, then applies
    /// greedy WordPiece splitting. Unknown words map to `[UNK]`.
    pub fn tokenize(&self, text: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        for word in Self::basic_tokenize(text) {
            ids.extend(self.wordpiece(&word));
        }
        ids
    }

    /// Builds a BERT QA input: `[CLS] question [SEP] context [SEP]`,
    /// truncated/padded to `seq_len` (padding id 0).
    pub fn encode_pair(&self, question: &str, context: &str, seq_len: usize) -> Vec<u32> {
        let mut ids = vec![CLS_ID];
        ids.extend(self.tokenize(question));
        ids.push(SEP_ID);
        ids.extend(self.tokenize(context));
        ids.push(SEP_ID);
        ids.truncate(seq_len);
        while ids.len() < seq_len {
            ids.push(0);
        }
        ids
    }

    fn basic_tokenize(text: &str) -> Vec<String> {
        let mut words = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                cur.extend(ch.to_lowercase());
            } else {
                if !cur.is_empty() {
                    words.push(std::mem::take(&mut cur));
                }
                if !ch.is_whitespace() {
                    words.push(ch.to_string());
                }
            }
        }
        if !cur.is_empty() {
            words.push(cur);
        }
        words
    }

    fn wordpiece(&self, word: &str) -> Vec<u32> {
        if word.chars().count() > self.max_chars_per_word {
            return vec![self.unk_id];
        }
        let chars: Vec<char> = word.chars().collect();
        let mut out = Vec::new();
        let mut start = 0;
        while start < chars.len() {
            let mut end = chars.len();
            let mut found = None;
            while end > start {
                let mut piece: String = chars[start..end].iter().collect();
                if start > 0 {
                    piece = format!("##{piece}");
                }
                if let Some(&id) = self.vocab.get(&piece) {
                    found = Some(id);
                    break;
                }
                end -= 1;
            }
            match found {
                Some(id) => {
                    out.push(id);
                    start = end;
                }
                None => return vec![self.unk_id],
            }
        }
        out
    }
}

/// Extracts the best answer span from QA start/end logits.
///
/// Returns `(start_index, end_index, score)` maximizing
/// `start_logit + end_logit` with `start ≤ end ≤ start + max_span`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn best_answer_span(
    start_logits: &[f32],
    end_logits: &[f32],
    max_span: usize,
) -> (usize, usize, f32) {
    assert_eq!(
        start_logits.len(),
        end_logits.len(),
        "logit length mismatch"
    );
    assert!(!start_logits.is_empty(), "logits cannot be empty");
    let mut best = (0usize, 0usize, f32::NEG_INFINITY);
    for (s, &s_logit) in start_logits.iter().enumerate() {
        let e_hi = (s + max_span).min(end_logits.len() - 1);
        for (off, &e_logit) in end_logits[s..=e_hi].iter().enumerate() {
            let score = s_logit + e_logit;
            if score > best.2 {
                best = (s, s + off, score);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_known_words() {
        let t = WordPieceTokenizer::demo();
        let ids = t.tokenize("the quick brown fox");
        assert_eq!(ids.len(), 4);
        assert!(!ids.contains(&t.unk_id));
    }

    #[test]
    fn subword_splitting_uses_continuations() {
        let t = WordPieceTokenizer::demo();
        // "benchmark" = "bench" + "##mark" (the whole word is not in the
        // vocabulary, its pieces are).
        let ids = t.tokenize("benchmark");
        assert_eq!(ids.len(), 2);
        let bench = t.vocab["bench"];
        let mark = t.vocab["##mark"];
        assert_eq!(ids, vec![bench, mark]);
    }

    #[test]
    fn unknown_words_map_to_unk() {
        let t = WordPieceTokenizer::demo();
        let ids = t.tokenize("zzzqqq");
        assert_eq!(ids, vec![t.unk_id]);
    }

    #[test]
    fn punctuation_splits_words() {
        let t = WordPieceTokenizer::demo();
        let with = t.tokenize("the,fox");
        let without = t.tokenize("the fox");
        // Comma becomes its own (unknown) token.
        assert_eq!(with.len(), without.len() + 1);
    }

    #[test]
    fn case_insensitive() {
        let t = WordPieceTokenizer::demo();
        assert_eq!(t.tokenize("The FOX"), t.tokenize("the fox"));
    }

    #[test]
    fn encode_pair_layout() {
        let t = WordPieceTokenizer::demo();
        let ids = t.encode_pair("what is ai", "ai is fast", 16);
        assert_eq!(ids.len(), 16);
        assert_eq!(ids[0], CLS_ID);
        let seps = ids.iter().filter(|&&i| i == SEP_ID).count();
        assert_eq!(seps, 2);
        // Padded with zeros at the end.
        assert_eq!(*ids.last().unwrap(), 0);
    }

    #[test]
    fn encode_pair_truncates() {
        let t = WordPieceTokenizer::demo();
        let long = "the quick brown fox ".repeat(50);
        let ids = t.encode_pair("what", &long, 32);
        assert_eq!(ids.len(), 32);
    }

    #[test]
    fn answer_span_maximizes_sum() {
        let start = [0.1, 5.0, 0.2, 0.0];
        let end = [0.0, 0.1, 4.0, 0.3];
        let (s, e, score) = best_answer_span(&start, &end, 3);
        assert_eq!((s, e), (1, 2));
        assert!((score - 9.0).abs() < 1e-6);
    }

    #[test]
    fn answer_span_respects_max_len() {
        let start = [5.0, 0.0, 0.0, 0.0];
        let end = [0.0, 0.0, 0.0, 5.0];
        // span 0..3 disallowed with max_span 1 → best within window.
        let (s, e, _) = best_answer_span(&start, &end, 1);
        assert!(e - s <= 1);
    }

    #[test]
    #[should_panic(expected = "must contain [UNK]")]
    fn vocab_without_unk_panics() {
        WordPieceTokenizer::new(vec![("hello".to_string(), 1)]);
    }
}
