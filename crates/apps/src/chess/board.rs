//! Chess board representation and move generation for Oracol.
//!
//! A compact 8×8 mailbox board with pseudo-legal move generation plus a
//! legality filter (own king may not be left in check).
//!
//! The rules are simplified where the paper's Oracol workload does not need
//! them: castling and en-passant are omitted, and a pawn promotes to a queen
//! only. Oracol solves tactical positions ("mate in N", material-winning
//! combinations), which these rules do not decide; what the reproduction
//! measures is the shape of the search and its shared tables, not full
//! chess.

/// Piece kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Piece {
    /// Pawn.
    Pawn,
    /// Knight.
    Knight,
    /// Bishop.
    Bishop,
    /// Rook.
    Rook,
    /// Queen.
    Queen,
    /// King.
    King,
}

impl Piece {
    /// Material value in centipawns.
    pub fn value(self) -> i32 {
        match self {
            Piece::Pawn => 100,
            Piece::Knight => 320,
            Piece::Bishop => 330,
            Piece::Rook => 500,
            Piece::Queen => 900,
            Piece::King => 20_000,
        }
    }
}

/// Side to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// White.
    White,
    /// Black.
    Black,
}

impl Color {
    /// The opposing colour.
    pub fn opponent(self) -> Color {
        match self {
            Color::White => Color::Black,
            Color::Black => Color::White,
        }
    }
}

/// One square's contents.
pub type Square = Option<(Color, Piece)>;

/// A move: from-square, to-square, and what the moving piece becomes (only
/// different from the moving piece for pawn promotion, always to a queen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Source square index (0..64, a1 = 0, h8 = 63).
    pub from: u8,
    /// Destination square index.
    pub to: u8,
    /// True when the move promotes a pawn (to a queen).
    pub promotes: bool,
}

impl Move {
    /// Encode the move into a small integer (used as the payload of shared
    /// killer/transposition table entries).
    pub fn encode(self) -> u64 {
        u64::from(self.from) | (u64::from(self.to) << 8) | (u64::from(self.promotes as u8) << 16)
    }

    /// Inverse of [`Move::encode`].
    pub fn decode(bits: u64) -> Move {
        Move {
            from: (bits & 0xff) as u8,
            to: ((bits >> 8) & 0xff) as u8,
            promotes: (bits >> 16) & 1 == 1,
        }
    }
}

/// A chess position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Board {
    /// 64 squares, a1 = index 0, h8 = index 63.
    pub squares: [Square; 64],
    /// Side to move.
    pub to_move: Color,
}

fn file(square: usize) -> i32 {
    (square % 8) as i32
}

fn rank(square: usize) -> i32 {
    (square / 8) as i32
}

fn square_at(file: i32, rank: i32) -> Option<usize> {
    if (0..8).contains(&file) && (0..8).contains(&rank) {
        Some((rank * 8 + file) as usize)
    } else {
        None
    }
}

const KNIGHT_STEPS: [(i32, i32); 8] = [
    (1, 2),
    (2, 1),
    (-1, 2),
    (-2, 1),
    (1, -2),
    (2, -1),
    (-1, -2),
    (-2, -1),
];
const KING_STEPS: [(i32, i32); 8] = [
    (1, 0),
    (-1, 0),
    (0, 1),
    (0, -1),
    (1, 1),
    (1, -1),
    (-1, 1),
    (-1, -1),
];
const BISHOP_DIRS: [(i32, i32); 4] = [(1, 1), (1, -1), (-1, 1), (-1, -1)];
const ROOK_DIRS: [(i32, i32); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

impl Board {
    /// An empty board with White to move.
    pub fn empty() -> Board {
        Board {
            squares: [None; 64],
            to_move: Color::White,
        }
    }

    /// The standard chess starting position.
    pub fn start_position() -> Board {
        let mut board = Board::empty();
        let back = [
            Piece::Rook,
            Piece::Knight,
            Piece::Bishop,
            Piece::Queen,
            Piece::King,
            Piece::Bishop,
            Piece::Knight,
            Piece::Rook,
        ];
        for (f, piece) in back.iter().enumerate() {
            board.squares[f] = Some((Color::White, *piece));
            board.squares[8 + f] = Some((Color::White, Piece::Pawn));
            board.squares[48 + f] = Some((Color::Black, Piece::Pawn));
            board.squares[56 + f] = Some((Color::Black, *piece));
        }
        board
    }

    /// Place a piece (test/position construction helper).
    pub fn put(&mut self, square: usize, color: Color, piece: Piece) -> &mut Self {
        self.squares[square] = Some((color, piece));
        self
    }

    /// Zobrist-style hash of the position (simple multiplicative mixing; good
    /// enough for transposition-table indexing in the reproduction).
    pub fn hash(&self) -> u64 {
        let mut h: u64 = match self.to_move {
            Color::White => 0x9e3779b97f4a7c15,
            Color::Black => 0xc2b2ae3d27d4eb4f,
        };
        for (i, square) in self.squares.iter().enumerate() {
            if let Some((color, piece)) = square {
                let code = (i as u64)
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(*piece as u64 * 7 + (*color as u64) * 97 + 1);
                h ^= code
                    .wrapping_mul(0xff51afd7ed558ccd)
                    .rotate_left((i % 63) as u32);
            }
        }
        h
    }

    /// Square of `color`'s king, if present.
    pub fn king_square(&self, color: Color) -> Option<usize> {
        self.squares
            .iter()
            .position(|s| *s == Some((color, Piece::King)))
    }

    /// True if `square` is attacked by any piece of `attacker`.
    pub fn is_attacked(&self, square: usize, attacker: Color) -> bool {
        let f = file(square);
        let r = rank(square);
        // Pawn attacks.
        let pawn_rank = match attacker {
            Color::White => r - 1,
            Color::Black => r + 1,
        };
        for df in [-1, 1] {
            if let Some(sq) = square_at(f + df, pawn_rank) {
                if self.squares[sq] == Some((attacker, Piece::Pawn)) {
                    return true;
                }
            }
        }
        // Knight attacks.
        for (df, dr) in KNIGHT_STEPS {
            if let Some(sq) = square_at(f + df, r + dr) {
                if self.squares[sq] == Some((attacker, Piece::Knight)) {
                    return true;
                }
            }
        }
        // King attacks.
        for (df, dr) in KING_STEPS {
            if let Some(sq) = square_at(f + df, r + dr) {
                if self.squares[sq] == Some((attacker, Piece::King)) {
                    return true;
                }
            }
        }
        // Sliding attacks.
        for (dirs, pieces) in [
            (&BISHOP_DIRS, [Piece::Bishop, Piece::Queen]),
            (&ROOK_DIRS, [Piece::Rook, Piece::Queen]),
        ] {
            for (df, dr) in dirs.iter() {
                let mut step = 1;
                while let Some(sq) = square_at(f + df * step, r + dr * step) {
                    match self.squares[sq] {
                        None => step += 1,
                        Some((color, piece)) => {
                            if color == attacker && pieces.contains(&piece) {
                                return true;
                            }
                            break;
                        }
                    }
                }
            }
        }
        false
    }

    /// True if the side to move is in check.
    pub fn in_check(&self) -> bool {
        match self.king_square(self.to_move) {
            Some(square) => self.is_attacked(square, self.to_move.opponent()),
            None => false,
        }
    }

    /// Apply a move, returning the new position (the original is unchanged).
    pub fn make_move(&self, mv: Move) -> Board {
        let mut next = self.clone();
        let piece = next.squares[mv.from as usize].take();
        next.squares[mv.to as usize] = if mv.promotes {
            piece.map(|(color, _)| (color, Piece::Queen))
        } else {
            piece
        };
        next.to_move = self.to_move.opponent();
        next
    }

    /// All pseudo-legal moves for the side to move (may leave the king in
    /// check; see [`Board::legal_moves`]).
    pub fn pseudo_legal_moves(&self) -> Vec<Move> {
        let mut moves = Vec::with_capacity(48);
        let us = self.to_move;
        for from in 0..64usize {
            let Some((color, piece)) = self.squares[from] else {
                continue;
            };
            if color != us {
                continue;
            }
            let f = file(from);
            let r = rank(from);
            match piece {
                Piece::Pawn => {
                    let dir = if us == Color::White { 1 } else { -1 };
                    let last_rank = if us == Color::White { 7 } else { 0 };
                    // Single push.
                    if let Some(to) = square_at(f, r + dir) {
                        if self.squares[to].is_none() {
                            moves.push(Move {
                                from: from as u8,
                                to: to as u8,
                                promotes: rank(to) == last_rank,
                            });
                            // Double push from the starting rank.
                            let start_rank = if us == Color::White { 1 } else { 6 };
                            if r == start_rank {
                                if let Some(to2) = square_at(f, r + 2 * dir) {
                                    if self.squares[to2].is_none() {
                                        moves.push(Move {
                                            from: from as u8,
                                            to: to2 as u8,
                                            promotes: false,
                                        });
                                    }
                                }
                            }
                        }
                    }
                    // Captures.
                    for df in [-1, 1] {
                        if let Some(to) = square_at(f + df, r + dir) {
                            if matches!(self.squares[to], Some((c, _)) if c != us) {
                                moves.push(Move {
                                    from: from as u8,
                                    to: to as u8,
                                    promotes: rank(to) == last_rank,
                                });
                            }
                        }
                    }
                }
                Piece::Knight => {
                    for (df, dr) in KNIGHT_STEPS {
                        if let Some(to) = square_at(f + df, r + dr) {
                            if !matches!(self.squares[to], Some((c, _)) if c == us) {
                                moves.push(Move {
                                    from: from as u8,
                                    to: to as u8,
                                    promotes: false,
                                });
                            }
                        }
                    }
                }
                Piece::King => {
                    for (df, dr) in KING_STEPS {
                        if let Some(to) = square_at(f + df, r + dr) {
                            if !matches!(self.squares[to], Some((c, _)) if c == us) {
                                moves.push(Move {
                                    from: from as u8,
                                    to: to as u8,
                                    promotes: false,
                                });
                            }
                        }
                    }
                }
                Piece::Bishop | Piece::Rook | Piece::Queen => {
                    let dirs: &[(i32, i32)] = match piece {
                        Piece::Bishop => &BISHOP_DIRS,
                        Piece::Rook => &ROOK_DIRS,
                        _ => &[
                            (1, 1),
                            (1, -1),
                            (-1, 1),
                            (-1, -1),
                            (1, 0),
                            (-1, 0),
                            (0, 1),
                            (0, -1),
                        ],
                    };
                    for (df, dr) in dirs {
                        let mut step = 1;
                        while let Some(to) = square_at(f + df * step, r + dr * step) {
                            match self.squares[to] {
                                None => {
                                    moves.push(Move {
                                        from: from as u8,
                                        to: to as u8,
                                        promotes: false,
                                    });
                                    step += 1;
                                }
                                Some((c, _)) => {
                                    if c != us {
                                        moves.push(Move {
                                            from: from as u8,
                                            to: to as u8,
                                            promotes: false,
                                        });
                                    }
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
        moves
    }

    /// All legal moves (pseudo-legal moves that do not leave the mover's
    /// king attacked).
    pub fn legal_moves(&self) -> Vec<Move> {
        let us = self.to_move;
        self.pseudo_legal_moves()
            .into_iter()
            .filter(|mv| {
                let next = self.make_move(*mv);
                match next.king_square(us) {
                    Some(square) => !next.is_attacked(square, us.opponent()),
                    None => false,
                }
            })
            .collect()
    }

    /// True if the move captures a piece.
    pub fn is_capture(&self, mv: Move) -> bool {
        self.squares[mv.to as usize].is_some()
    }

    /// Static evaluation from the point of view of the side to move:
    /// material plus a small mobility term.
    pub fn evaluate(&self) -> i32 {
        let mut score = 0;
        for square in self.squares.iter().flatten() {
            let (color, piece) = square;
            let value = piece.value();
            if *color == self.to_move {
                score += value;
            } else {
                score -= value;
            }
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perft(board: &Board, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        board
            .legal_moves()
            .iter()
            .map(|mv| perft(&board.make_move(*mv), depth - 1))
            .sum()
    }

    #[test]
    fn start_position_move_counts() {
        // Without castling/en passant the shallow perft numbers match the
        // standard ones (those rules only matter deeper).
        let board = Board::start_position();
        assert_eq!(board.legal_moves().len(), 20);
        assert_eq!(perft(&board, 2), 400);
        assert_eq!(perft(&board, 3), 8902);
    }

    #[test]
    fn check_detection_and_legality_filter() {
        // White king e1, black rook e8: king may not stay on the e-file.
        let mut board = Board::empty();
        board.put(4, Color::White, Piece::King);
        board.put(60, Color::Black, Piece::Rook);
        assert!(board.in_check());
        let moves = board.legal_moves();
        assert!(!moves.is_empty());
        for mv in &moves {
            let next = board.make_move(*mv);
            let king = next.king_square(Color::White).unwrap();
            assert!(!next.is_attacked(king, Color::Black));
        }
    }

    #[test]
    fn pawn_promotion_generates_queen() {
        let mut board = Board::empty();
        board.put(0, Color::White, Piece::King);
        board.put(63, Color::Black, Piece::King);
        board.put(48 + 1, Color::White, Piece::Pawn); // b7
        let moves: Vec<Move> = board
            .legal_moves()
            .into_iter()
            .filter(|mv| mv.from == 49)
            .collect();
        assert!(moves.iter().all(|mv| mv.promotes));
        let next = board.make_move(moves[0]);
        assert_eq!(
            next.squares[moves[0].to as usize],
            Some((Color::White, Piece::Queen))
        );
    }

    #[test]
    fn move_encode_decode_round_trip() {
        let mv = Move {
            from: 12,
            to: 60,
            promotes: true,
        };
        assert_eq!(Move::decode(mv.encode()), mv);
    }

    #[test]
    fn hash_distinguishes_positions() {
        let a = Board::start_position();
        let mut b = a.clone();
        b.to_move = Color::Black;
        assert_ne!(a.hash(), b.hash());
        let c = a.make_move(a.legal_moves()[0]);
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn evaluation_counts_material() {
        let mut board = Board::empty();
        board.put(0, Color::White, Piece::King);
        board.put(63, Color::Black, Piece::King);
        board.put(27, Color::White, Piece::Queen);
        assert!(board.evaluate() > 800);
        board.to_move = Color::Black;
        assert!(board.evaluate() < -800);
    }
}
